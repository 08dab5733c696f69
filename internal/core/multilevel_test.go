package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/torus"
)

func TestMLHierarchyShrinks(t *testing.T) {
	g := graph.RandomConnected(200, 400, 20, 7)
	levels := partition.Coarsen(g, 16, nil)
	if len(levels) < 2 {
		t.Fatalf("no coarsening happened on a 200-vertex graph")
	}
	for i := 1; i < len(levels); i++ {
		if levels[i].G.N() >= levels[i-1].G.N() {
			t.Fatalf("level %d did not shrink: %d -> %d", i, levels[i-1].G.N(), levels[i].G.N())
		}
		if len(levels[i-1].CMap) != levels[i-1].G.N() {
			t.Fatalf("level %d cmap has %d entries, want %d", i-1, len(levels[i-1].CMap), levels[i-1].G.N())
		}
	}
	coarsest := levels[len(levels)-1].G
	if coarsest.N() > 16 && levels[len(levels)-1].CMap != nil {
		t.Fatalf("coarsest level %d vertices but hierarchy continued", coarsest.N())
	}
}

func TestClusterSetsPartition(t *testing.T) {
	g := graph.RandomConnected(100, 150, 30, 3)
	levels := partition.Coarsen(g, 8, nil)
	for l := range levels {
		cl := clusterSets(levels, l, nil)
		seen := make([]bool, g.N())
		for c := range int32(levels[l].G.N()) {
			mem := cl.members(c)
			prev := int32(-1)
			for _, v := range mem {
				if seen[v] {
					t.Fatalf("level %d: vertex %d in two clusters", l, v)
				}
				seen[v] = true
				if cl.of[v] != c {
					t.Fatalf("level %d: cl.of[%d]=%d but member of %d", l, v, cl.of[v], c)
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
	levels := partition.Coarsen(g, 8, nil)
	L := len(levels) - 1
	tab := table(t, topo, a.Nodes)
	st := newMapState(g, tab, nil)
	placeCoarsest(levels[L].G, clusterSets(levels, L, nil), st)
	checkValidMapping(t, g, a, nodesOf(st))
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
	levels := partition.Coarsen(g, 2, nil)
	L := len(levels) - 1
	tab := table(t, topo, nodes)
	st := newMapState(g, tab, nil)
	placeCoarsest(levels[L].G, clusterSets(levels, L, nil), st)
	nodeOf := nodesOf(st)
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

// TestRefineClusterLevelExactGain: at every level of the hierarchy,
// down to level 0 where every vertex is its own cluster, the pass
// loop's reported gain is the measured WH change and the placement
// stays one-to-one.
func TestRefineClusterLevelExactGain(t *testing.T) {
	topo, a := fixture(t, 40, 3)
	g := graph.RandomConnected(40, 80, 25, 9)
	levels := partition.Coarsen(g, 8, nil)
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
	st := newMapState(g, tab, nil)
	st.placeNodes(nodeOf)
	for l := len(levels) - 1; l >= 0; l-- {
		before := wh(g, tab, nodesOf(st))
		gain := refineLevel(st, levels[l].G, clusterSets(levels, l, nil), RefineOptions{})
		after := wh(g, tab, nodesOf(st))
		if gain < 0 {
			t.Fatalf("level %d: negative gain %d", l, gain)
		}
		if before-after != gain {
			t.Fatalf("level %d: reported gain %d, measured %d", l, gain, before-after)
		}
		checkValidMapping(t, g, a, nodesOf(st))
	}
}

// TestSwapDeltaMatchesRecompute: at a coarse level and at level 0,
// under WH and TH, swapDelta equals the recomputed change of a swap,
// and on single-member clusters it equals pairDelta too.
func TestSwapDeltaMatchesRecompute(t *testing.T) {
	topo, a := fixture(t, 32, 6)
	g := graph.RandomConnected(32, 64, 15, 2)
	levels := partition.Coarsen(g, 8, nil)
	if len(levels) < 2 {
		t.Skip("graph did not coarsen")
	}
	tab := table(t, topo, a.Nodes)
	st := newMapState(g, tab, nil)
	st.placeNodes(a.Nodes[:g.N()])
	singles := 0
	for _, l := range []int{1, 0} {
		cl := clusterSets(levels, l, nil)
		nc := int32(levels[l].G.N())
		for _, obj := range []Objective{WeightedHops, TotalHops} {
			checked := 0
			for x := int32(0); x < nc && checked < 20; x++ {
				for y := x + 1; y < nc && checked < 20; y++ {
					mx, my := cl.members(x), cl.members(y)
					if len(mx) != len(my) {
						continue
					}
					before := objectiveValue(g, tab, nodesOf(st), obj)
					d := cl.swapDelta(st, x, y, obj)
					if len(mx) == 1 {
						if pd := pairDelta(g, tab, st.nodeOf, mx[0], my[0], obj); pd != d {
							t.Fatalf("level %d obj %d swap (%d,%d): swapDelta %d, pairDelta %d", l, obj, x, y, d, pd)
						}
						singles++
					}
					cl.applySwap(st, x, y)
					if after := objectiveValue(g, tab, nodesOf(st), obj); after-before != d {
						t.Fatalf("level %d obj %d swap (%d,%d): delta %d, recompute %d", l, obj, x, y, d, after-before)
					}
					cl.applySwap(st, x, y) // revert
					if got := objectiveValue(g, tab, nodesOf(st), obj); got != before {
						t.Fatalf("level %d obj %d swap (%d,%d) revert mismatch: %d != %d", l, obj, x, y, got, before)
					}
					checked++
				}
			}
			if checked == 0 {
				t.Fatalf("level %d: no equal-cardinality cluster pair found", l)
			}
		}
	}
	if singles == 0 {
		t.Fatal("no single-member pair checked against pairDelta")
	}
}

// nodesOf returns the node id of every task placed in st.
func nodesOf(st *mapState) []int32 {
	nodeOf := make([]int32, len(st.nodeOf))
	st.nodesInto(nodeOf)
	return nodeOf
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
		levels := partition.Coarsen(g, to, nil)
		coarsest := levels[len(levels)-1].G
		// Either we reached the target or matching stalled above it:
		// coarsening the coarsest level again adds no level.
		if coarsest.N() > to {
			if again := partition.Coarsen(coarsest, to, nil); len(again) > 1 {
				t.Fatalf("coarsenTo=%d: stopped at %d although matching still shrinks (nc=%d)", to, coarsest.N(), again[1].G.N())
			}
		}
	}
}
