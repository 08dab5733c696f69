package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/alloc"
	"repro/internal/arena"
	"repro/internal/dragonfly"
	"repro/internal/fattree"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/routecache"
	"repro/internal/torus"
)

// TestRefineDigests pins the bytes of Algorithm 2 directly: the
// placement and the returned gain of RefineWH under both objectives,
// several ∆ values and both pass rules, serially and on a resident
// arena with two workers, on torus, fat-tree and dragonfly tables and
// on a disconnected graph with isolated tasks; the placement of MapUML
// on hierarchies of 0, 1, 2 and 6 levels and on one whose matching
// stalls; UML's hierarchy itself; and the grouping and gains of
// RefineWHFine on the three tables, serially and with two workers. The
// root
// TestSolveDigests reaches these loops only through whole solves on
// small fixtures; a change to the refinement must reproduce these
// digests unedited.
func TestRefineDigests(t *testing.T) {
	want := map[string]string{
		"fine/dragonfly":               "622a583913344c1f",
		"fine/dragonfly/w2":            "622a583913344c1f",
		"fine/fattree":                 "bb49612380ac0295",
		"fine/fattree/w2":              "bb49612380ac0295",
		"fine/torus":                   "d83617b0aff83124",
		"fine/torus/w2":                "d83617b0aff83124",
		"hierarchy/L1":                 "ec2dd7b79c23f04f",
		"hierarchy/L2":                 "05db9d1d41be05d7",
		"hierarchy/L6":                 "5f8945b4cbb973e8",
		"hierarchy/spider":             "0a29778cf464639c",
		"refine/dragonfly/TH":          "ee2a1528b26fae79",
		"refine/dragonfly/WH":          "922598b52697b1ed",
		"refine/dragonfly/WH/w2":       "922598b52697b1ed",
		"refine/fattree/TH":            "b5718f4dddacbbd1",
		"refine/fattree/WH":            "22477fec4d69cdff",
		"refine/fattree/WH/w2":         "22477fec4d69cdff",
		"refine/torus/TH":              "c349dc782382d77d",
		"refine/torus/TH/w2":           "c349dc782382d77d",
		"refine/torus/WH":              "c471bd82cd604e2a",
		"refine/torus/WH/d16":          "32e06831c041bb74",
		"refine/torus/WH/d2":           "0280d4f1276ec57f",
		"refine/torus/WH/gain100":      "c63bfc63dd3c09b0",
		"refine/torus/WH/pass1":        "c63bfc63dd3c09b0",
		"refine/torus/WH/w2":           "c471bd82cd604e2a",
		"refine/torus/disconnected":    "af89c573835a0011",
		"refine/torus/disconnected/TH": "66959a46e51bf5f1",
		"uml/fattree/L2":               "683be2bc1f884d2b",
		"uml/torus/L0":                 "d78dc0920a500e49",
		"uml/torus/L1":                 "fc257229c466ed70",
		"uml/torus/L6":                 "893519a63912ff47",
		"uml/torus/spider":             "2504531375390a69",
	}

	torusTab := func(nodes int, seed int64) *routecache.Table {
		topo := torus.NewHopper3D(8, 8, 8)
		a, err := alloc.Generate(topo, nodes, alloc.Config{Mode: alloc.Sparse, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return table(t, topo, a.Nodes)
	}
	ft, err := fattree.New(8, 10e9, 2)
	if err != nil {
		t.Fatal(err)
	}
	ftAlloc, err := alloc.SparseHosts(ft.Hosts(), 48, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	df, err := dragonfly.New(3, 10e9, 5e9, 4e9)
	if err != nil {
		t.Fatal(err)
	}
	dfAlloc, err := alloc.SparseHosts(df.Hosts(), 64, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	tabs := map[string]*routecache.Table{
		"torus":     torusTab(64, 5),
		"fattree":   table(t, ft, ftAlloc.Nodes),
		"dragonfly": table(t, df, dfAlloc.Nodes),
	}
	// Fewer tasks than allocated nodes, so the candidate walks also
	// cross empty nodes.
	graphs := map[string]*graph.Graph{
		"torus":        graph.RandomConnected(56, 140, 40, 11),
		"fattree":      graph.RandomConnected(44, 110, 40, 12),
		"dragonfly":    graph.RandomConnected(60, 150, 40, 13),
		"disconnected": disjointUnion(graph.RandomConnected(24, 50, 30, 14), graph.RandomConnected(20, 40, 30, 15), 3),
	}
	// One resident arena under every two-worker run, as an Engine
	// keeps one across solves.
	ar := arena.New()
	w2 := func() *Exec { return &Exec{Par: parallel.NewGroup(context.Background(), 2), Arena: ar} }

	got := map[string]string{}
	refine := func(name, tabName, gName string, opt RefineOptions) {
		tab, g := tabs[tabName], graphs[gName]
		// A scrambled start gives every pass swaps to find.
		start := make([]int32, g.N())
		for i, p := range rand.New(rand.NewSource(int64(g.N()))).Perm(tab.Len())[:g.N()] {
			start[i] = tab.Node(int32(p))
		}
		nodeOf := append([]int32(nil), start...)
		gain := RefineWH(g, tab, nodeOf, opt)
		if d := objectiveValue(g, tab, start, opt.Objective) - objectiveValue(g, tab, nodeOf, opt.Objective); d != gain {
			t.Errorf("%s: reported gain %d, measured %d", name, gain, d)
		}
		got[name] = placementDigest(nodeOf, gain)
	}
	refine("refine/torus/WH", "torus", "torus", RefineOptions{})
	refine("refine/torus/WH/w2", "torus", "torus", RefineOptions{Exec: w2()})
	refine("refine/torus/TH", "torus", "torus", RefineOptions{Objective: TotalHops})
	refine("refine/torus/TH/w2", "torus", "torus", RefineOptions{Objective: TotalHops, Exec: w2()})
	refine("refine/torus/WH/d2", "torus", "torus", RefineOptions{Delta: 2})
	refine("refine/torus/WH/d16", "torus", "torus", RefineOptions{Delta: 16})
	refine("refine/torus/WH/pass1", "torus", "torus", RefineOptions{MaxPasses: 1})
	refine("refine/torus/WH/gain100", "torus", "torus", RefineOptions{MinPassGain: 1.0})
	refine("refine/torus/disconnected", "torus", "disconnected", RefineOptions{})
	refine("refine/torus/disconnected/TH", "torus", "disconnected", RefineOptions{Objective: TotalHops, Exec: w2()})
	refine("refine/fattree/WH", "fattree", "fattree", RefineOptions{})
	refine("refine/fattree/WH/w2", "fattree", "fattree", RefineOptions{Exec: w2()})
	refine("refine/fattree/TH", "fattree", "fattree", RefineOptions{Objective: TotalHops})
	refine("refine/dragonfly/WH", "dragonfly", "dragonfly", RefineOptions{})
	refine("refine/dragonfly/WH/w2", "dragonfly", "dragonfly", RefineOptions{Exec: w2()})
	refine("refine/dragonfly/TH", "dragonfly", "dragonfly", RefineOptions{Objective: TotalHops})

	// MapUML on hierarchies of 0, 1, 2 and 6 coarse levels. All but
	// the flat one hold single-member clusters at a coarse level, and
	// the deepest one clusters of at least 16 members, which score
	// their swap candidates on the worker pool.
	uml := func(name string, tab *routecache.Table, g *graph.Graph, wantLevels, wantMax int) {
		levels := partition.Coarsen(g, umlCoarsenTo, nil)
		if L := len(levels) - 1; L != wantLevels {
			t.Fatalf("%s: %d coarse levels, want %d", name, L, wantLevels)
		}
		if smallest, largest := coarseClusterSizes(levels); wantLevels > 0 && (smallest != 1 || largest < wantMax) {
			t.Fatalf("%s: coarse clusters of %d..%d members, want 1..%d or more", name, smallest, largest, wantMax)
		}
		serial := MapUML(g, tab, nil)
		if pooled := MapUML(g, tab, w2()); !reflect.DeepEqual(serial, pooled) {
			t.Errorf("%s: two workers diverged from serial", name)
		}
		got[name] = placementDigest(serial, 0)
	}
	uml("uml/torus/L0", torusTab(16, 6), graph.RandomConnected(12, 20, 10, 16), 0, 0)
	uml("uml/torus/L1", torusTab(32, 7), graph.RandomConnected(26, 40, 30, 17), 1, 2)
	uml("uml/torus/L6", torusTab(220, 8), graph.RandomConnected(200, 400, 20, 7), 6, 16)
	uml("uml/fattree/L2", tabs["fattree"], graphs["fattree"], 2, 2)
	uml("uml/torus/spider", torusTab(100, 9), spider(40), 1, 2)

	// UML's hierarchy itself: the size and cluster map of every level.
	// On the spider every edge weighs the same, so the matching's visit
	// order and its choice of neighbour both fall to their tie rules,
	// and its one coarse level is a star the matching cannot shrink.
	hierarchy := func(name string, g *graph.Graph, wantLevels int) {
		levels := partition.Coarsen(g, umlCoarsenTo, nil)
		if L := len(levels) - 1; L != wantLevels {
			t.Fatalf("%s: %d coarse levels, want %d", name, L, wantLevels)
		}
		h := fnv.New64a()
		for _, lv := range levels {
			binary.Write(h, binary.LittleEndian, int32(lv.G.N()))
			if lv.CMap != nil {
				binary.Write(h, binary.LittleEndian, lv.CMap)
			}
		}
		got[name] = fmt.Sprintf("%016x", h.Sum64())
	}
	hierarchy("hierarchy/L1", graph.RandomConnected(26, 40, 30, 17), 1)
	hierarchy("hierarchy/L2", graphs["fattree"], 2)
	hierarchy("hierarchy/L6", graph.RandomConnected(200, 400, 20, 7), 6)
	hierarchy("hierarchy/spider", spider(40), 1)

	// RefineWHFine from a scrambled grouping: four tasks a group, the
	// groups on distinct allocated nodes, fewer groups than nodes. The
	// digest covers the grouping and both gains.
	fine := func(name, tabName string, groups int, ex *Exec) {
		tab := tabs[tabName]
		g := graph.RandomConnected(4*groups, 10*groups, 30, int64(groups))
		rng := rand.New(rand.NewSource(int64(groups)))
		group := make([]int32, g.N())
		for i, p := range rng.Perm(g.N()) {
			group[i] = int32(p % groups)
		}
		nodeOf := make([]int32, groups)
		for i, p := range rng.Perm(tab.Len())[:groups] {
			nodeOf[i] = tab.Node(int32(p))
		}
		taskNodes := func() []int32 {
			nodes := make([]int32, g.N())
			for t, gr := range group {
				nodes[t] = nodeOf[gr]
			}
			return nodes
		}
		before := objectiveValue(g, tab, taskNodes(), WeightedHops)
		whGain, volGain := RefineWHFine(g, tab, group, nodeOf, RefineOptions{Exec: ex})
		if d := before - objectiveValue(g, tab, taskNodes(), WeightedHops); d != whGain || whGain <= 0 {
			t.Errorf("%s: reported WH gain %d, measured %d", name, whGain, d)
		}
		got[name] = placementDigest(group, whGain, volGain)
	}
	fine("fine/torus", "torus", 40, nil)
	fine("fine/torus/w2", "torus", 40, w2())
	fine("fine/fattree", "fattree", 36, nil)
	fine("fine/fattree/w2", "fattree", 36, w2())
	fine("fine/dragonfly", "dragonfly", 48, nil)
	fine("fine/dragonfly/w2", "dragonfly", 48, w2())

	var names []string
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: digest %s, want %s", name, got[name], want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: not run", name)
		}
	}
}

// placementDigest is the FNV-64a digest of a placement (or grouping)
// and the gains a stage reported.
func placementDigest(nodeOf []int32, gains ...int64) string {
	h := fnv.New64a()
	binary.Write(h, binary.LittleEndian, nodeOf)
	for _, gain := range gains {
		binary.Write(h, binary.LittleEndian, gain)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// spider returns a hub with the given number of two-vertex legs, every
// edge of weight 1: hub 0, leg i is 2i-1 (next to the hub) and 2i.
func spider(legs int) *graph.Graph {
	var us, vs []int32
	for i := int32(1); i <= int32(legs); i++ {
		us = append(us, 0, 2*i-1, 2*i-1, 2*i)
		vs = append(vs, 2*i-1, 0, 2*i, 2*i-1)
	}
	return graph.FromEdges(2*legs+1, us, vs, nil, nil)
}

// disjointUnion returns a and b side by side, followed by isolated
// vertices.
func disjointUnion(a, b *graph.Graph, isolated int) *graph.Graph {
	var us, vs []int32
	var ws []int64
	add := func(g *graph.Graph, base int32) {
		for v := 0; v < g.N(); v++ {
			wt := g.Weights(v)
			for i, u := range g.Neighbors(v) {
				us, vs, ws = append(us, base+int32(v)), append(vs, base+u), append(ws, wt[i])
			}
		}
	}
	add(a, 0)
	add(b, int32(a.N()))
	return graph.FromEdges(a.N()+b.N()+isolated, us, vs, ws, nil)
}

// coarseClusterSizes returns the fewest and the most fine vertices a
// cluster holds at any coarse level of the hierarchy (0, 0 when there
// is none).
func coarseClusterSizes(levels []partition.Level) (smallest, largest int) {
	cl := make([]int32, levels[0].G.N())
	for v := range cl {
		cl[v] = int32(v)
	}
	for l := 1; l < len(levels); l++ {
		size := make([]int, levels[l].G.N())
		for v := range cl {
			cl[v] = levels[l-1].CMap[cl[v]]
			size[cl[v]]++
		}
		for _, s := range size {
			if smallest == 0 || s < smallest {
				smallest = s
			}
			largest = max(largest, s)
		}
	}
	return smallest, largest
}
