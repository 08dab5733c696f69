package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/torus"
)

// emc evaluates the expected max volume congestion of a coarse
// mapping under the adaptive-routing model.
func emc(g *graph.Graph, topo torus.MultipathTopology, nodeOf []int32) float64 {
	pl := &metrics.Placement{NodeOf: nodeOf}
	return metrics.ComputeAdaptive(g, topo, pl).EMC
}

func TestRefineCongestionAdaptiveValidMapping(t *testing.T) {
	topo, a := fixture(t, 32, 19)
	tab := table(t, topo, a.Nodes)
	g := graph.RandomConnected(32, 96, 80, 7)
	nodeOf := MapUG(g, tab, nil)
	RefineCongestionAdaptive(g, tab, nodeOf, VolumeCongestion, RefineOptions{})
	checkValidMapping(t, g, a, nodeOf)
}

func TestRefineCongestionAdaptiveNeverWorsensEMC(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		topo, a := fixture(t, 32, seed)
		tab := table(t, topo, a.Nodes)
		g := graph.RandomConnected(32, 96, 60, seed*13)
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(len(a.Nodes))
		nodeOf := make([]int32, g.N())
		for i := range nodeOf {
			nodeOf[i] = a.Nodes[perm[i]]
		}
		before := emc(g, topo, nodeOf)
		RefineCongestionAdaptive(g, tab, nodeOf, VolumeCongestion, RefineOptions{})
		after := emc(g, topo, nodeOf)
		if after > before*(1+1e-9) {
			t.Fatalf("seed %d: EMC worsened %g -> %g", seed, before, after)
		}
	}
}

func TestRefineCongestionAdaptiveImprovesCrowdedLine(t *testing.T) {
	// Tasks strung along one torus line all talking to task 0: the
	// initial line placement overloads the links near task 0. The
	// adaptive refinement should spread the load and lower EMC.
	topo := torus.NewHopper3D(6, 6, 6)
	n := 12
	var us, vs []int32
	var ws []int64
	for i := 1; i < n; i++ {
		us = append(us, 0)
		vs = append(vs, int32(i))
		ws = append(ws, 100)
	}
	g := graph.FromEdges(n, us, vs, ws, nil).Symmetrize(nil)
	// Allocation: two parallel lines of 6 nodes each.
	var nodes []int32
	for x := 0; x < 6; x++ {
		nodes = append(nodes, int32(topo.NodeAt([]int{x, 0, 0})))
		nodes = append(nodes, int32(topo.NodeAt([]int{x, 3, 3})))
	}
	// Worst-case start: interleave tasks across the two lines.
	nodeOf := make([]int32, n)
	copy(nodeOf, nodes[:n])
	before := emc(g, topo, nodeOf)
	swaps := RefineCongestionAdaptive(g, table(t, topo, nodes), nodeOf, VolumeCongestion, RefineOptions{})
	after := emc(g, topo, nodeOf)
	if swaps == 0 {
		t.Skip("refinement found no improving swap on this instance")
	}
	if after >= before {
		t.Fatalf("EMC not improved: %g -> %g (%d swaps)", before, after, swaps)
	}
}

func TestAdaptiveEqualsStaticOnRing(t *testing.T) {
	// On a 1D ring every node pair has exactly one minimal route, so
	// the adaptive refinement must make the same decisions as the
	// static Algorithm 3 (keys scale by RouteScale uniformly).
	topo := torus.New([]int{24}, []float64{1e9})
	nodes := make([]int32, 16)
	for i := range nodes {
		nodes[i] = int32(i)
	}
	g := graph.RandomConnected(16, 40, 30, 11)
	tab := table(t, topo, nodes)
	a := MapUG(g, tab, nil)
	b := append([]int32(nil), a...)
	RefineCongestion(g, tab, a, VolumeCongestion, RefineOptions{})
	RefineCongestionAdaptive(g, tab, b, VolumeCongestion, RefineOptions{})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("static and adaptive diverge on single-route network at task %d: %d != %d", i, a[i], b[i])
		}
	}
}

func TestMapUMCAPipeline(t *testing.T) {
	topo, a := fixture(t, 24, 29)
	tab := table(t, topo, a.Nodes)
	g := graph.RandomConnected(24, 72, 90, 17)
	nodeOf := MapUMCA(g, tab, nil)
	checkValidMapping(t, g, a, nodeOf)
	// UMCA must not have higher expected congestion than plain UG.
	ug := MapUG(g, tab, nil)
	if emc(g, topo, nodeOf) > emc(g, topo, ug)*(1+1e-9) {
		t.Fatalf("UMCA EMC %g above UG EMC %g", emc(g, topo, nodeOf), emc(g, topo, ug))
	}
}

func TestRefineCongestionAdaptiveMessageKind(t *testing.T) {
	topo, a := fixture(t, 24, 31)
	tab := table(t, topo, a.Nodes)
	g := graph.RandomConnected(24, 60, 1, 23) // unit weights: one message per edge
	nodeOf := MapUG(g, tab, nil)
	pl := &metrics.Placement{NodeOf: append([]int32(nil), nodeOf...)}
	before := metrics.ComputeAdaptive(g, topo, pl).EMMC
	RefineCongestionAdaptive(g, tab, nodeOf, MessageCongestion, RefineOptions{})
	checkValidMapping(t, g, a, nodeOf)
	after := metrics.ComputeAdaptive(g, topo, &metrics.Placement{NodeOf: nodeOf}).EMMC
	if after > before*(1+1e-9) {
		t.Fatalf("EMMC worsened %g -> %g", before, after)
	}
}
