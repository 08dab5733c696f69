package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/routecache"
	"repro/internal/torus"
)

// capacityFixture builds a graph of n groups with the given weights,
// an allocation whose capacities (allocation order) are a permutation
// of those weights, and an initial mapping that scrambles the groups
// across the nodes.
func capacityFixture(t *testing.T, weights []int64, seed int64) (*graph.Graph, *torus.Torus, []int32, []int32, []int64, []int64) {
	t.Helper()
	n := len(weights)
	topo := torus.NewHopper3D(6, 6, 6)
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomConnected(n, 3*n, 40, seed)
	nodes := make([]int32, n)
	used := map[int32]bool{}
	for i := range nodes {
		for {
			m := int32(rng.Intn(topo.Nodes()))
			if !used[m] {
				used[m] = true
				nodes[i] = m
				break
			}
		}
	}
	caps := make([]int64, n)
	for i, p := range rng.Perm(n) {
		caps[i] = weights[p]
	}
	nodeOf := make([]int32, n)
	for i, p := range rng.Perm(n) {
		nodeOf[i] = nodes[p]
	}
	return g, topo, nodes, nodeOf, weights, caps
}

func totalExcess(tab *routecache.Table, nodeOf []int32, weights, caps []int64) int64 {
	var e int64
	for v, m := range nodeOf {
		if x := weights[v] - caps[tab.Local(m)]; x > 0 {
			e += x
		}
	}
	return e
}

func TestRepairCapacitiesFixesAllViolations(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		weights := []int64{24, 24, 16, 16, 16, 8, 8, 8, 8, 4}
		g, topo, nodes, nodeOf, w, caps := capacityFixture(t, weights, seed)
		tab := table(t, topo, nodes)
		RepairCapacities(g, tab, nodeOf, w, caps)
		if e := totalExcess(tab, nodeOf, w, caps); e != 0 {
			t.Fatalf("seed %d: %d oversubscription remains", seed, e)
		}
		// Still a bijection onto the same node set.
		seen := map[int32]bool{}
		for _, m := range nodeOf {
			if seen[m] {
				t.Fatalf("seed %d: node %d used twice", seed, m)
			}
			seen[m] = true
		}
	}
}

func TestRepairCapacitiesNoopWhenFeasible(t *testing.T) {
	weights := []int64{16, 16, 16, 16}
	g, topo, nodes, nodeOf, w, caps := capacityFixture(t, weights, 3)
	before := append([]int32(nil), nodeOf...)
	if swaps := RepairCapacities(g, table(t, topo, nodes), nodeOf, w, caps); swaps != 0 {
		t.Fatalf("uniform case performed %d swaps", swaps)
	}
	for i := range nodeOf {
		if nodeOf[i] != before[i] {
			t.Fatalf("no-op repair moved group %d", i)
		}
	}
}

func TestRepairCapacitiesMinimizesWHDamage(t *testing.T) {
	// Two nodes, two groups: heavy group on the small node. The only
	// repair is one swap; WH afterwards must equal the feasible
	// assignment's WH.
	topo := torus.NewHopper3D(4, 4, 4)
	g := graph.FromEdges(2, []int32{0}, []int32{1}, []int64{10}, nil).Symmetrize(nil)
	nodeOf := []int32{0, 5}
	w := []int64{16, 8}
	caps := []int64{8, 16} // node 0 holds 8, node 5 holds 16
	if swaps := RepairCapacities(g, table(t, topo, []int32{0, 5}), nodeOf, w, caps); swaps != 1 {
		t.Fatalf("%d swaps, want 1", swaps)
	}
	if nodeOf[0] != 5 || nodeOf[1] != 0 {
		t.Fatalf("wrong repair: %v", nodeOf)
	}
}

func TestRepairCapacitiesGivesUpOnInfeasible(t *testing.T) {
	// Total capacity cannot host the weights: the pass must terminate
	// without looping.
	topo := torus.NewHopper3D(4, 4, 4)
	g := graph.FromEdges(2, []int32{0}, []int32{1}, []int64{5}, nil).Symmetrize(nil)
	nodeOf := []int32{0, 5}
	w := []int64{16, 16}
	caps := []int64{8, 8}
	RepairCapacities(g, table(t, topo, []int32{0, 5}), nodeOf, w, caps) // must return
	if nodeOf[0] == nodeOf[1] {
		t.Fatal("repair corrupted the bijection")
	}
}
