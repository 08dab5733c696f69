package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/torus"
)

func TestHeavyEdgeMatchValid(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := graph.RandomConnected(64, 96, 50, seed)
		cmap, nc := heavyEdgeMatch(g)
		if nc <= 0 || nc > g.N() {
			t.Fatalf("seed %d: bad coarse count %d", seed, nc)
		}
		sizes := make([]int, nc)
		for v, c := range cmap {
			if c < 0 || int(c) >= nc {
				t.Fatalf("seed %d: vertex %d has out-of-range cluster %d", seed, v, c)
			}
			sizes[c]++
		}
		for c, s := range sizes {
			if s < 1 || s > 2 {
				t.Fatalf("seed %d: cluster %d has %d members, want 1 or 2", seed, c, s)
			}
		}
		// Matched pairs must share an edge.
		first := make([]int32, nc)
		for i := range first {
			first[i] = -1
		}
		for v := 0; v < g.N(); v++ {
			c := cmap[v]
			if first[c] < 0 {
				first[c] = int32(v)
			} else if !g.HasEdge(int(first[c]), v) {
				t.Fatalf("seed %d: cluster %d pairs non-adjacent %d,%d", seed, c, first[c], v)
			}
		}
	}
}

func TestHeavyEdgeMatchPrefersHeavyEdges(t *testing.T) {
	// Path 0-1-2-3 with a heavy middle edge: 1 must match 2.
	g := graph.FromEdges(4,
		[]int32{0, 1, 2}, []int32{1, 2, 3}, []int64{1, 100, 1}, nil).Symmetrize(nil)
	cmap, _ := heavyEdgeMatch(g)
	if cmap[1] != cmap[2] {
		t.Fatalf("heavy edge 1-2 not contracted: cmap=%v", cmap)
	}
	if cmap[0] == cmap[1] || cmap[3] == cmap[2] {
		t.Fatalf("light edges contracted over heavy one: cmap=%v", cmap)
	}
}

func TestMLHierarchyShrinks(t *testing.T) {
	g := graph.RandomConnected(200, 400, 20, 7)
	levels := mlHierarchy(g, 16)
	if len(levels) < 2 {
		t.Fatalf("no coarsening happened on a 200-vertex graph")
	}
	for i := 1; i < len(levels); i++ {
		if levels[i].g.N() >= levels[i-1].g.N() {
			t.Fatalf("level %d did not shrink: %d -> %d", i, levels[i-1].g.N(), levels[i].g.N())
		}
		if len(levels[i-1].cmap) != levels[i-1].g.N() {
			t.Fatalf("level %d cmap has %d entries, want %d", i-1, len(levels[i-1].cmap), levels[i-1].g.N())
		}
	}
	coarsest := levels[len(levels)-1].g
	if coarsest.N() > 16 && levels[len(levels)-1].cmap != nil {
		t.Fatalf("coarsest level %d vertices but hierarchy continued", coarsest.N())
	}
}

func TestClusterSetsPartition(t *testing.T) {
	g := graph.RandomConnected(100, 150, 30, 3)
	levels := mlHierarchy(g, 8)
	for l := range levels {
		cl0, members := clusterSets(levels, l)
		seen := make([]bool, g.N())
		for c, mem := range members {
			prev := int32(-1)
			for _, v := range mem {
				if seen[v] {
					t.Fatalf("level %d: vertex %d in two clusters", l, v)
				}
				seen[v] = true
				if cl0[v] != int32(c) {
					t.Fatalf("level %d: cl0[%d]=%d but member of %d", l, v, cl0[v], c)
				}
				if v <= prev {
					t.Fatalf("level %d cluster %d members not increasing: %v", l, c, mem)
				}
				prev = v
			}
			if len(mem) == 0 {
				t.Fatalf("level %d: empty cluster %d", l, c)
			}
		}
		for v, ok := range seen {
			if !ok {
				t.Fatalf("level %d: vertex %d not in any cluster", l, v)
			}
		}
	}
}

func TestPlaceCoarsestValidAssignment(t *testing.T) {
	topo, a := fixture(t, 48, 11)
	g := graph.RandomConnected(48, 90, 40, 5)
	levels := mlHierarchy(g, 8)
	L := len(levels) - 1
	_, members := clusterSets(levels, L)
	tab := table(t, topo, a.Nodes)
	loc := make([]int32, g.N())
	for i := range loc {
		loc[i] = -1
	}
	placeCoarsest(levels[L].g, members, tab, loc, nil)
	checkValidMapping(t, g, a, toNodes(tab, loc))
}

func TestPlaceCoarsestRegionsContiguousOnRing(t *testing.T) {
	// Two 4-cliques with a weak bridge, placed on a 16-node ring:
	// each clique's region should be tight (max pairwise hop small).
	var us, vs []int32
	var ws []int64
	addClique := func(base int32) {
		for i := int32(0); i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				us = append(us, base+i)
				vs = append(vs, base+j)
				ws = append(ws, 100)
			}
		}
	}
	addClique(0)
	addClique(4)
	us = append(us, 0)
	vs = append(vs, 4)
	ws = append(ws, 1)
	g := graph.FromEdges(8, us, vs, ws, nil).Symmetrize(nil)

	topo := torus.New([]int{16}, []float64{torus.HopperBWHigh})
	nodes := make([]int32, 16)
	for i := range nodes {
		nodes[i] = int32(i)
	}
	levels := mlHierarchy(g, 2)
	L := len(levels) - 1
	_, members := clusterSets(levels, L)
	tab := table(t, topo, nodes)
	loc := make([]int32, 8)
	placeCoarsest(levels[L].g, members, tab, loc, nil)
	nodeOf := toNodes(tab, loc)
	// Every vertex placed on a distinct ring node.
	used := map[int32]bool{}
	for _, m := range nodeOf {
		if used[m] {
			t.Fatalf("duplicate node %d in %v", m, nodeOf)
		}
		used[m] = true
	}
	// Region of each clique spans at most 5 hops on the 16-ring
	// (perfectly tight would be 3).
	for _, base := range []int{0, 4} {
		for i := base; i < base+4; i++ {
			for j := i + 1; j < base+4; j++ {
				if d := topo.HopDist(int(nodeOf[i]), int(nodeOf[j])); d > 5 {
					t.Fatalf("clique at %d spread %d hops apart: %v", base, d, nodeOf)
				}
			}
		}
	}
}

func TestRefineClusterLevelExactGain(t *testing.T) {
	topo, a := fixture(t, 40, 3)
	g := graph.RandomConnected(40, 80, 25, 9)
	levels := mlHierarchy(g, 8)
	if len(levels) < 2 {
		t.Skip("graph did not coarsen")
	}
	rng := rand.New(rand.NewSource(4))
	perm := rng.Perm(len(a.Nodes))
	nodeOf := make([]int32, g.N())
	for i := range nodeOf {
		nodeOf[i] = a.Nodes[perm[i]]
	}
	tab := table(t, topo, a.Nodes)
	loc := make([]int32, len(nodeOf))
	for i, m := range nodeOf {
		loc[i] = tab.Local(m)
	}
	for l := len(levels) - 1; l >= 1; l-- {
		cl0, members := clusterSets(levels, l)
		before := wh(g, tab, toNodes(tab, loc))
		gain := refineClusterLevel(g, levels[l].g, cl0, members, tab, loc, RefineOptions{})
		after := wh(g, tab, toNodes(tab, loc))
		if gain < 0 {
			t.Fatalf("level %d: negative gain %d", l, gain)
		}
		if before-after != gain {
			t.Fatalf("level %d: reported gain %d, measured %d", l, gain, before-after)
		}
		checkValidMapping(t, g, a, toNodes(tab, loc))
	}
}

func TestSwapDeltaMatchesRecompute(t *testing.T) {
	topo, a := fixture(t, 32, 6)
	g := graph.RandomConnected(32, 64, 15, 2)
	levels := mlHierarchy(g, 8)
	if len(levels) < 2 {
		t.Skip("graph did not coarsen")
	}
	l := 1
	cl0, members := clusterSets(levels, l)
	tab := table(t, topo, a.Nodes)
	loc := make([]int32, g.N()) // task i on a.Nodes[i]
	for i := range loc {
		loc[i] = int32(i)
	}
	cr := &clusterRefineState{
		g0: g, tab: tab, nodeOf: loc,
		taskAt:  make([]int32, tab.Len()),
		cl0:     cl0,
		members: members,
	}
	ps := &pairScratch{
		inPair:  make([]int32, g.N()),
		pairPos: make([]int32, g.N()),
	}
	for i := range cr.taskAt {
		cr.taskAt[i] = -1
	}
	for v, l := range loc {
		cr.taskAt[l] = int32(v)
	}
	nc := levels[l].g.N()
	checked := 0
	for x := 0; x < nc && checked < 20; x++ {
		for y := x + 1; y < nc && checked < 20; y++ {
			if len(members[x]) != len(members[y]) {
				continue
			}
			before := wh(g, tab, toNodes(tab, loc))
			d := cr.swapDelta(ps, int32(x), int32(y), WeightedHops)
			cr.applySwap(int32(x), int32(y))
			after := wh(g, tab, toNodes(tab, loc))
			if after-before != d {
				t.Fatalf("swap (%d,%d): delta %d, recompute %d", x, y, d, after-before)
			}
			cr.applySwap(int32(x), int32(y)) // revert
			if got := wh(g, tab, toNodes(tab, loc)); got != before {
				t.Fatalf("swap (%d,%d) revert mismatch: %d != %d", x, y, got, before)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Skip("no equal-cardinality cluster pair found")
	}
}

func TestMapUMLValidMapping(t *testing.T) {
	topo, a := fixture(t, 64, 17)
	tab := table(t, topo, a.Nodes)
	g := graph.RandomConnected(64, 128, 60, 8)
	nodeOf := MapUML(g, tab, nil)
	checkValidMapping(t, g, a, nodeOf)
}

func TestMapUMLBeatsRandomPlacement(t *testing.T) {
	topo, a := fixture(t, 64, 12)
	tab := table(t, topo, a.Nodes)
	g := graph.RandomConnected(64, 160, 80, 21)
	uml := MapUML(g, tab, nil)
	rng := rand.New(rand.NewSource(99))
	perm := rng.Perm(len(a.Nodes))
	random := make([]int32, g.N())
	for i := range random {
		random[i] = a.Nodes[perm[i]]
	}
	if wh(g, tab, uml) >= wh(g, tab, random) {
		t.Fatalf("UML WH %d not below random %d", wh(g, tab, uml), wh(g, tab, random))
	}
}

func TestMapUMLCompetitiveWithUG(t *testing.T) {
	// The multilevel scheme should land in the same quality regime as
	// the greedy construction (within 2x on WH — typically it is equal
	// or better after the final Algorithm 2 pass).
	topo, a := fixture(t, 48, 5)
	tab := table(t, topo, a.Nodes)
	g := graph.RandomConnected(48, 120, 50, 33)
	uml := wh(g, tab, MapUML(g, tab, nil))
	ug := wh(g, tab, MapUG(g, tab, nil))
	if uml > 2*ug {
		t.Fatalf("UML WH %d more than 2x UG WH %d", uml, ug)
	}
}

func TestMapUMLSmallGraphFallsBack(t *testing.T) {
	topo, a := fixture(t, 12, 8)
	tab := table(t, topo, a.Nodes)
	g := graph.RandomConnected(10, 15, 10, 4)
	nodeOf := MapUML(g, tab, nil)
	want := GreedyBest(g, tab, WeightedHops, nil)
	RefineWH(g, tab, want, RefineOptions{})
	for i := range nodeOf {
		if nodeOf[i] != want[i] {
			t.Fatalf("fallback differs from UG+RefineWH at %d: %d != %d", i, nodeOf[i], want[i])
		}
	}
}

func TestMapUMLDeterministic(t *testing.T) {
	topo, a := fixture(t, 40, 23)
	tab := table(t, topo, a.Nodes)
	g := graph.RandomConnected(40, 90, 35, 13)
	m1 := MapUML(g, tab, nil)
	m2 := MapUML(g, tab, nil)
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("non-deterministic at %d: %d != %d", i, m1[i], m2[i])
		}
	}
}

func TestMapUMLPanicsOnTooFewNodes(t *testing.T) {
	topo, a := fixture(t, 4, 2)
	tab := table(t, topo, a.Nodes)
	g := graph.RandomConnected(8, 12, 5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic with fewer nodes than tasks")
		}
	}()
	MapUML(g, tab, nil)
}

func TestMapUMLPropertyValid(t *testing.T) {
	topo, a := fixture(t, 36, 31)
	tab := table(t, topo, a.Nodes)
	f := func(seed int64, extra uint8) bool {
		g := graph.RandomConnected(36, 36+int(extra%64), 30, seed)
		nodeOf := MapUML(g, tab, nil)
		if len(nodeOf) != g.N() {
			return false
		}
		used := map[int32]bool{}
		allocated := map[int32]bool{}
		for _, m := range a.Nodes {
			allocated[m] = true
		}
		for _, m := range nodeOf {
			if used[m] || !allocated[m] {
				return false
			}
			used[m] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMapUMLHonorsCoarsenTo(t *testing.T) {
	g := graph.RandomConnected(120, 240, 40, 15)
	for _, to := range []int{4, 8, 32} {
		levels := mlHierarchy(g, to)
		coarsest := levels[len(levels)-1].g.N()
		// Either we reached the target or matching stalled above it.
		if coarsest > to {
			cmap, nc := heavyEdgeMatch(levels[len(levels)-1].g)
			_ = cmap
			if float64(nc) <= 0.95*float64(coarsest) {
				t.Fatalf("coarsenTo=%d: stopped at %d although matching still shrinks (nc=%d)", to, coarsest, nc)
			}
		}
	}
}
