package baseline

import (
	"testing"
	"testing/quick"

	"repro/internal/alloc"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/torus"
)

func fixture(t *testing.T, n int, seed int64) (*torus.Torus, *alloc.Allocation) {
	t.Helper()
	topo := torus.NewHopper3D(8, 8, 8)
	a, err := alloc.Generate(topo, n, alloc.Config{Mode: alloc.Sparse, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return topo, a
}

func checkValid(t *testing.T, g *graph.Graph, a *alloc.Allocation, nodeOf []int32) {
	t.Helper()
	allocated := map[int32]bool{}
	for _, m := range a.Nodes {
		allocated[m] = true
	}
	used := map[int32]bool{}
	for tk, m := range nodeOf {
		if !allocated[m] {
			t.Fatalf("task %d on unallocated node %d", tk, m)
		}
		if used[m] {
			t.Fatalf("node %d reused", m)
		}
		used[m] = true
	}
}

func TestDEFFollowsAllocationOrder(t *testing.T) {
	_, a := fixture(t, 16, 1)
	nodeOf := DEF(16, a)
	for i := 0; i < 16; i++ {
		if nodeOf[i] != a.Nodes[i] {
			t.Fatalf("DEF[%d] = %d, want %d", i, nodeOf[i], a.Nodes[i])
		}
	}
}

func TestTMAPValidAndMCNoWorseThanDEF(t *testing.T) {
	topo, a := fixture(t, 32, 3)
	g := graph.RandomConnected(32, 80, 20, 4)
	nodeOf := TMAP(g, topo, a, 5)
	checkValid(t, g, a, nodeOf)
	mT := metrics.Compute(g, topo, &metrics.Placement{NodeOf: nodeOf})
	mD := metrics.Compute(g, topo, &metrics.Placement{NodeOf: DEF(32, a)})
	// The defining property: TMAP never returns something with MC
	// above DEF's (it falls back to DEF).
	if mT.MC > mD.MC {
		t.Fatalf("TMAP MC %f > DEF MC %f", mT.MC, mD.MC)
	}
}

func TestSMAPValid(t *testing.T) {
	topo, a := fixture(t, 24, 7)
	g := graph.RandomConnected(24, 60, 10, 8)
	nodeOf := SMAP(g, topo, a, 9)
	checkValid(t, g, a, nodeOf)
}

func TestSplitGeometricSeparates(t *testing.T) {
	topo := torus.NewHopper3D(8, 8, 8)
	// Nodes along a line in X: split must give low-X vs high-X halves.
	var nodes []int32
	for x := 0; x < 8; x++ {
		nodes = append(nodes, int32(topo.NodeAt([]int{x, 0, 0})))
	}
	l, r := splitGeometric(nodes, 4, topo)
	if len(l) != 4 || len(r) != 4 {
		t.Fatalf("split sizes %d/%d", len(l), len(r))
	}
	var buf []int
	for _, m := range l {
		buf = topo.Coord(int(m), buf[:0])
		if buf[0] >= 4 {
			t.Fatalf("left half contains x=%d", buf[0])
		}
	}
}

func TestRBMapSingletons(t *testing.T) {
	topo, a := fixture(t, 2, 11)
	g := graph.Ring(2)
	nodeOf := SMAP(g, topo, a, 12)
	checkValid(t, g, a, nodeOf)
}

func TestTMAPKeepsCommunicatingTasksClose(t *testing.T) {
	// Path task graph on a contiguous allocation: recursive
	// bipartitioning should beat a scrambled placement on WH.
	topo := torus.NewHopper3D(8, 8, 8)
	a, err := alloc.Generate(topo, 16, alloc.Config{Mode: alloc.Contiguous, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	var us, vs []int32
	var ws []int64
	for i := 0; i < 15; i++ {
		us = append(us, int32(i), int32(i+1))
		vs = append(vs, int32(i+1), int32(i))
		ws = append(ws, 5, 5)
	}
	g := graph.FromEdges(16, us, vs, ws, nil)
	nodeOf := TMAP(g, topo, a, 14)
	checkValid(t, g, a, nodeOf)
	scrambled := make([]int32, 16)
	for i := range scrambled {
		scrambled[i] = a.Nodes[(i*5)%16]
	}
	whT := metrics.WeightedHops(g, topo, nodeOf)
	whS := metrics.WeightedHops(g, topo, scrambled)
	if whT >= whS {
		t.Fatalf("TMAP WH %d not better than scrambled %d", whT, whS)
	}
}

func TestFitSidesExact(t *testing.T) {
	g := graph.Ring(6)
	part := []int32{0, 0, 0, 0, 0, 1}
	fitSides(g, part, 3)
	c := [2]int{}
	for _, p := range part {
		c[p]++
	}
	if c[0] != 3 || c[1] != 3 {
		t.Fatalf("fitSides result %v", part)
	}
}

func TestTMAPGreedyValidAndFallsBack(t *testing.T) {
	topo, a := fixture(t, 28, 15)
	g := graph.RandomConnected(28, 70, 15, 16)
	nodeOf := TMAPGreedy(g, topo, a, 17)
	checkValid(t, g, a, nodeOf)
	mG := metrics.Compute(g, topo, &metrics.Placement{NodeOf: nodeOf})
	mD := metrics.Compute(g, topo, &metrics.Placement{NodeOf: DEF(28, a)})
	// Defining property shared with TMAP: MC never above DEF's.
	if mG.MC > mD.MC {
		t.Fatalf("TMAPGreedy MC %f > DEF %f", mG.MC, mD.MC)
	}
}

func TestTMAPGreedyDeterministic(t *testing.T) {
	topo, a := fixture(t, 16, 18)
	g := graph.RandomConnected(16, 40, 8, 19)
	m1 := TMAPGreedy(g, topo, a, 20)
	m2 := TMAPGreedy(g, topo, a, 20)
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatal("TMAPGreedy not deterministic")
		}
	}
}

func TestTMAPDeterministic(t *testing.T) {
	topo := torus.NewHopper3D(6, 6, 6)
	a, err := alloc.Generate(topo, 16, alloc.Config{Mode: alloc.Sparse, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.RandomConnected(16, 40, 30, 3)
	m1 := TMAP(g, topo, a, 1)
	m2 := TMAP(g, topo, a, 1)
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("TMAP not deterministic at %d", i)
		}
	}
}

func TestSMAPDeterministic(t *testing.T) {
	topo := torus.NewHopper3D(6, 6, 6)
	a, err := alloc.Generate(topo, 16, alloc.Config{Mode: alloc.Sparse, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.RandomConnected(16, 40, 30, 9)
	m1 := SMAP(g, topo, a, 1)
	m2 := SMAP(g, topo, a, 1)
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("SMAP not deterministic at %d", i)
		}
	}
}

func TestBaselinesPermutationProperty(t *testing.T) {
	topo := torus.NewHopper3D(6, 6, 6)
	f := func(seed int64, nn uint8) bool {
		n := 4 + int(nn%12)
		a, err := alloc.Generate(topo, n, alloc.Config{Mode: alloc.Sparse, Seed: seed})
		if err != nil {
			return false
		}
		g := graph.RandomConnected(n, 3*n, 20, seed*3+1)
		for _, nodeOf := range [][]int32{
			DEF(n, a),
			TMAP(g, topo, a, seed),
			TMAPGreedy(g, topo, a, seed),
			SMAP(g, topo, a, seed),
		} {
			if len(nodeOf) != n {
				return false
			}
			allocated := map[int32]bool{}
			for _, m := range a.Nodes {
				allocated[m] = true
			}
			used := map[int32]bool{}
			for _, m := range nodeOf {
				if !allocated[m] || used[m] {
					return false
				}
				used[m] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
