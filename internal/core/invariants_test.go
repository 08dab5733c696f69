package core

import (
	"testing"
	"testing/quick"

	"repro/internal/alloc"
	"repro/internal/graph"
	"repro/internal/routecache"
	"repro/internal/torus"
)

// isPermutationOnto reports whether nodeOf maps tasks bijectively
// into the allocated node set.
func isPermutationOnto(nodeOf []int32, a *alloc.Allocation) bool {
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
	return true
}

// Property: for arbitrary seeds, the full pipeline of every variant
// yields a valid injective mapping and the refinements never worsen
// their own objective.
func TestMappingInvariantsProperty(t *testing.T) {
	topo := torus.NewHopper3D(6, 6, 6)
	prop := func(seed int64) bool {
		n := 16 + int(uint64(seed)%17)
		a, err := alloc.Generate(topo, n, alloc.Config{Mode: alloc.Sparse, Seed: seed})
		if err != nil {
			return false
		}
		tab, err := routecache.New(topo, a.Nodes)
		if err != nil {
			return false
		}
		g := graph.RandomConnected(n, 3*n, 20, seed+1)
		ug := MapUG(g, tab, nil)
		if !isPermutationOnto(ug, a) {
			return false
		}
		whUG := objectiveValue(g, tab, ug, WeightedHops)
		uwh := append([]int32(nil), ug...)
		RefineWH(g, tab, uwh, RefineOptions{})
		if !isPermutationOnto(uwh, a) {
			return false
		}
		if objectiveValue(g, tab, uwh, WeightedHops) > whUG {
			return false
		}
		umc := append([]int32(nil), ug...)
		RefineCongestion(g, tab, umc, VolumeCongestion, RefineOptions{})
		return isPermutationOnto(umc, a)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Property: greedy mapping quality is invariant under relabeling the
// allocation order (the algorithm reads the node set, not its order,
// except for the arbitrary first placement).
func TestGreedyAllocationOrderOnlyAffectsSeedNode(t *testing.T) {
	topo := torus.NewHopper3D(6, 6, 6)
	a, err := alloc.Generate(topo, 20, alloc.Config{Mode: alloc.Sparse, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tab := table(t, topo, a.Nodes)
	g := graph.RandomConnected(20, 60, 10, 4)
	base := Greedy(g, tab, GreedyOptions{})
	// Reverse all but the first allocated node: t0 lands on the same
	// node, and the BFS-driven construction sees the same node *set*.
	rev := append([]int32(nil), a.Nodes...)
	for i, j := 1, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	alt := Greedy(g, table(t, topo, rev), GreedyOptions{})
	whBase := objectiveValue(g, tab, base, WeightedHops)
	whAlt := objectiveValue(g, tab, alt, WeightedHops)
	if whBase != whAlt {
		t.Fatalf("allocation order changed greedy quality: %d vs %d", whBase, whAlt)
	}
}

// The RefineWH pass threshold must actually stop refinement: with
// MinPassGain of 100% no second pass can run, so the result equals a
// single-pass run.
func TestRefineWHPassThreshold(t *testing.T) {
	topo := torus.NewHopper3D(6, 6, 6)
	a, err := alloc.Generate(topo, 24, alloc.Config{Mode: alloc.Sparse, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tab := table(t, topo, a.Nodes)
	g := graph.RandomConnected(24, 70, 12, 6)
	one := make([]int32, 24)
	copy(one, a.Nodes[:24])
	multi := append([]int32(nil), one...)
	RefineWH(g, tab, one, RefineOptions{MaxPasses: 1})
	RefineWH(g, tab, multi, RefineOptions{MinPassGain: 1.0})
	whOne := objectiveValue(g, tab, one, WeightedHops)
	whMulti := objectiveValue(g, tab, multi, WeightedHops)
	if whOne != whMulti {
		t.Fatalf("MinPassGain=1.0 should behave like a single pass: %d vs %d", whOne, whMulti)
	}
}

// UTH must never lose to UG on the TotalHops objective it optimizes.
func TestUTHOptimizesTotalHops(t *testing.T) {
	topo := torus.NewHopper3D(6, 6, 6)
	a, err := alloc.Generate(topo, 24, alloc.Config{Mode: alloc.Sparse, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tab := table(t, topo, a.Nodes)
	g := graph.RandomConnected(24, 80, 50, 8)
	uth := MapUTH(g, tab, nil)
	ugTH := objectiveValue(g, tab, GreedyBest(g, tab, TotalHops, nil), TotalHops)
	uthTH := objectiveValue(g, tab, uth, TotalHops)
	if uthTH > ugTH {
		t.Fatalf("UTH TH %d worse than its own greedy %d", uthTH, ugTH)
	}
}
