package metrics

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dragonfly"
	"repro/internal/graph"
	"repro/internal/torus"
)

// oneMessageGraph returns a 2-task directed graph with a single
// message of the given volume from task 0 to task 1.
func oneMessageGraph(w int64) *graph.Graph {
	return graph.FromEdges(2, []int32{0}, []int32{1}, []int64{w}, nil)
}

func TestAdaptiveSingleDimMessage(t *testing.T) {
	// Tasks on nodes differing in one dimension: a unique minimal
	// route, so adaptive == static congestion.
	topo := torus.New([]int{8, 8}, []float64{2e9, 1e9})
	g := oneMessageGraph(1000)
	pl := &Placement{NodeOf: []int32{int32(topo.NodeAt([]int{0, 0})), int32(topo.NodeAt([]int{3, 0}))}}
	am := ComputeAdaptive(g, topo, pl)
	sm := Compute(g, topo, pl)
	if math.Abs(am.EMC-sm.MC) > 1e-12 {
		t.Fatalf("single-route EMC %g != MC %g", am.EMC, sm.MC)
	}
	if am.EMMC != 1 {
		t.Fatalf("EMMC %g, want 1", am.EMMC)
	}
	if am.UsedLinks != sm.UsedLinks || am.UsedLinks != 3 {
		t.Fatalf("UsedLinks %d/%d, want 3", am.UsedLinks, sm.UsedLinks)
	}
}

func TestAdaptiveTwoDimMessageSplits(t *testing.T) {
	// Offset in two dimensions: two L-shaped routes that share no
	// links, each taken with probability 1/2.
	topo := torus.New([]int{8, 8}, []float64{1e9, 1e9})
	g := oneMessageGraph(1000)
	pl := &Placement{NodeOf: []int32{
		int32(topo.NodeAt([]int{0, 0})),
		int32(topo.NodeAt([]int{2, 3})),
	}}
	am := ComputeAdaptive(g, topo, pl)
	if am.EMMC != 0.5 {
		t.Fatalf("EMMC %g, want 0.5", am.EMMC)
	}
	wantEMC := 500.0 / 1e9
	if math.Abs(am.EMC-wantEMC) > 1e-15 {
		t.Fatalf("EMC %g, want %g", am.EMC, wantEMC)
	}
	// The two routes cover 2 * HopDist distinct links.
	if hops := topo.HopDist(int(pl.NodeOf[0]), int(pl.NodeOf[1])); am.UsedLinks != 2*hops {
		t.Fatalf("UsedLinks %d, want %d", am.UsedLinks, 2*hops)
	}
	// Static routing puts everything on one route.
	sm := Compute(g, topo, pl)
	if am.EMC >= sm.MC {
		t.Fatalf("splitting did not lower max congestion: EMC %g >= MC %g", am.EMC, sm.MC)
	}
}

func TestAdaptiveIntraNodeIgnored(t *testing.T) {
	topo := torus.NewHopper3D(4, 4, 4)
	g := oneMessageGraph(50)
	pl := &Placement{NodeOf: []int32{7, 7}}
	am := ComputeAdaptive(g, topo, pl)
	if am.EMC != 0 || am.EMMC != 0 || am.UsedLinks != 0 {
		t.Fatalf("intra-node message produced traffic: %+v", am)
	}
}

func TestAdaptiveGroupComposition(t *testing.T) {
	// GroupOf composition must behave as in Compute.
	topo := torus.NewHopper3D(4, 4, 4)
	g := graph.FromEdges(4,
		[]int32{0, 1, 2}, []int32{1, 2, 3}, []int64{10, 20, 30}, nil)
	grouped := &Placement{GroupOf: []int32{0, 0, 1, 1}, NodeOf: []int32{3, 12}}
	am := ComputeAdaptive(g, topo, grouped)
	// Only the 1->2 edge crosses groups.
	p := float64(topo.NumMinimalRoutes(3, 12))
	if p < 1 {
		t.Fatal("test nodes must differ")
	}
	wantEMMC := 1 / p
	if math.Abs(am.EMMC-wantEMMC) > 1e-12 {
		t.Fatalf("EMMC %g, want %g", am.EMMC, wantEMMC)
	}
}

func TestAdaptiveAveragesBounded(t *testing.T) {
	// EAC <= EMC and EAMC <= EMMC by definition.
	topo := torus.NewHopper3D(4, 4, 4)
	g := graph.RandomConnected(24, 60, 100, 5)
	nodeOf := make([]int32, 24)
	for i := range nodeOf {
		nodeOf[i] = int32((i * 7) % topo.Nodes())
	}
	// Deduplicate nodes (placement need not be injective for metrics).
	pl := &Placement{NodeOf: nodeOf}
	am := ComputeAdaptive(g, topo, pl)
	if am.EAC > am.EMC+1e-12 || am.EAMC > am.EMMC+1e-12 {
		t.Fatalf("averages exceed maxima: %+v", am)
	}
	if am.EMC <= 0 || am.UsedLinks == 0 {
		t.Fatalf("degenerate adaptive metrics: %+v", am)
	}
}

func TestAdaptiveConservesExpectedHops(t *testing.T) {
	// Sum over links of E[messages] equals TH: every minimal route of
	// a message has exactly HopDist links, so the expectation
	// preserves the total. We recover the sum as EAMC * UsedLinks.
	topo := torus.New([]int{5, 5, 5}, []float64{1e9, 1e9, 1e9})
	g := graph.RandomConnected(30, 90, 50, 9)
	nodeOf := make([]int32, 30)
	for i := range nodeOf {
		nodeOf[i] = int32((i * 11) % topo.Nodes())
	}
	pl := &Placement{NodeOf: nodeOf}
	am := ComputeAdaptive(g, topo, pl)
	sm := Compute(g, topo, pl)
	sumMsg := am.EAMC * float64(am.UsedLinks)
	if math.Abs(sumMsg-float64(sm.TH)) > 1e-6*float64(sm.TH) {
		t.Fatalf("sum of expected per-link messages %g != TH %d", sumMsg, sm.TH)
	}
}

// TestAdaptiveEqualsStaticOnDragonfly: a canonical dragonfly's minimal
// route is unique, so the expected congestion of every message is its
// static congestion, bit for bit, under a grouped placement with
// several tasks per host.
func TestAdaptiveEqualsStaticOnDragonfly(t *testing.T) {
	g := graph.RandomConnected(96, 300, 50, 4)
	for h := 1; h <= 3; h++ {
		df, err := dragonfly.New(h, 10e9, 5e9, 4e9)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(h)))
		groups := min(16, df.Hosts())
		pl := &Placement{GroupOf: make([]int32, g.N()), NodeOf: make([]int32, groups)}
		for i := range pl.GroupOf {
			pl.GroupOf[i] = int32(rng.Intn(groups))
		}
		for gi, host := range rng.Perm(df.Hosts())[:groups] {
			pl.NodeOf[gi] = int32(host)
		}
		am, sm := ComputeAdaptive(g, df, pl), Compute(g, df, pl)
		if am.EMC != sm.MC || am.EMMC != float64(sm.MMC) || am.EAC != sm.AC || am.EAMC != sm.AMC ||
			am.UsedLinks != sm.UsedLinks || sm.UsedLinks == 0 {
			t.Fatalf("dragonfly h=%d: adaptive %+v differs from static %+v", h, am, sm)
		}
	}
}
