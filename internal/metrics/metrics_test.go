package metrics

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/torus"
)

// twoTaskGraph returns a directed task graph with one edge 0->1 of
// the given volume.
func twoTaskGraph(vol int64) *graph.Graph {
	return graph.FromEdges(2, []int32{0}, []int32{1}, []int64{vol}, nil)
}

func TestComputeSingleMessage(t *testing.T) {
	topo := torus.New([]int{4, 4, 4}, []float64{2, 2, 2})
	tg := twoTaskGraph(10)
	// Place tasks three X-hops apart... on a 4-torus max X distance is 2.
	a := topo.NodeAt([]int{0, 0, 0})
	b := topo.NodeAt([]int{2, 0, 0})
	pl := &Placement{NodeOf: []int32{int32(a), int32(b)}}
	m := Compute(tg, topo, pl)
	if m.TH != 2 || m.WH != 20 {
		t.Fatalf("TH=%d WH=%d, want 2,20", m.TH, m.WH)
	}
	if m.MMC != 1 {
		t.Fatalf("MMC = %d, want 1", m.MMC)
	}
	if m.MC != 10.0/2.0 {
		t.Fatalf("MC = %f, want 5", m.MC)
	}
	if m.UsedLinks != 2 {
		t.Fatalf("UsedLinks = %d, want 2", m.UsedLinks)
	}
	if m.AMC != 1 || m.AC != 5 {
		t.Fatalf("AMC=%f AC=%f, want 1,5", m.AMC, m.AC)
	}
	if m.ICV != 10 || m.ICM != 1 || m.MNRV != 10 || m.MNRM != 1 {
		t.Fatalf("ICV=%d ICM=%d MNRV=%d MNRM=%d", m.ICV, m.ICM, m.MNRV, m.MNRM)
	}
}

func TestComputeIntraNodeIsFree(t *testing.T) {
	topo := torus.New([]int{4, 4}, []float64{1, 1})
	tg := twoTaskGraph(100)
	pl := &Placement{NodeOf: []int32{3, 3}} // same node
	m := Compute(tg, topo, pl)
	if m.TH != 0 || m.WH != 0 || m.ICV != 0 || m.ICM != 0 || m.UsedLinks != 0 {
		t.Fatalf("intra-node traffic leaked into metrics: %+v", m)
	}
}

func TestComputeGroupComposition(t *testing.T) {
	topo := torus.New([]int{8}, []float64{1})
	// Four tasks in two groups; edges 0->2 (vol 3) and 1->3 (vol 5).
	tg := graph.FromEdges(4, []int32{0, 1}, []int32{2, 3}, []int64{3, 5}, nil)
	pl := &Placement{
		GroupOf: []int32{0, 0, 1, 1},
		NodeOf:  []int32{0, 2},
	}
	m := Compute(tg, topo, pl)
	// Both messages travel 2 hops: TH=4, WH=2*3+2*5=16.
	if m.TH != 4 || m.WH != 16 {
		t.Fatalf("TH=%d WH=%d, want 4,16", m.TH, m.WH)
	}
	// Messages share the same 2-link route: MMC=2.
	if m.MMC != 2 {
		t.Fatalf("MMC = %d, want 2", m.MMC)
	}
	// Node 2 receives both: MNRV=8, MNRM=2.
	if m.MNRV != 8 || m.MNRM != 2 {
		t.Fatalf("MNRV=%d MNRM=%d", m.MNRV, m.MNRM)
	}
}

func TestCongestionSumEqualsTH(t *testing.T) {
	// The identity the paper states: TH = sum of link congestions.
	topo := torus.New([]int{5, 5}, []float64{1, 1})
	var us, vs []int32
	var ws []int64
	for i := 0; i < 10; i++ {
		us = append(us, int32(i))
		vs = append(vs, int32((i+3)%20))
		ws = append(ws, int64(i+1))
	}
	tg := graph.FromEdges(20, us, vs, ws, nil)
	nodeOf := make([]int32, 20)
	for i := range nodeOf {
		nodeOf[i] = int32(i % topo.Nodes())
	}
	pl := &Placement{NodeOf: nodeOf}
	m := Compute(tg, topo, pl)
	if m.UsedLinks == 0 {
		t.Fatal("no links used")
	}
	// AMC * UsedLinks = total messages over links = TH.
	sum := m.AMC * float64(m.UsedLinks)
	if diff := sum - float64(m.TH); diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("sum of congestions %f != TH %d", sum, m.TH)
	}
}

func TestWeightedHopsAgreesWithCompute(t *testing.T) {
	topo := torus.New([]int{4, 4}, []float64{1, 1})
	g := graph.RandomConnected(10, 20, 7, 3)
	nodeOf := make([]int32, 10)
	for i := range nodeOf {
		nodeOf[i] = int32((i * 3) % topo.Nodes())
	}
	pl := &Placement{NodeOf: nodeOf}
	m := Compute(g, topo, pl)
	if wh := WeightedHops(g, topo, nodeOf); wh != m.WH {
		t.Fatalf("WeightedHops %d != Compute.WH %d", wh, m.WH)
	}
}

func TestHeterogeneousBandwidthAffectsMC(t *testing.T) {
	topo := torus.NewHopper3D(4, 4, 4)
	tg := twoTaskGraph(torus.GB)
	a := topo.NodeAt([]int{0, 0, 0})
	// Y-neighbour: low-bandwidth link.
	bY := topo.NodeAt([]int{0, 1, 0})
	mY := Compute(tg, topo, &Placement{NodeOf: []int32{int32(a), int32(bY)}})
	// X-neighbour: high-bandwidth link.
	bX := topo.NodeAt([]int{1, 0, 0})
	mX := Compute(tg, topo, &Placement{NodeOf: []int32{int32(a), int32(bX)}})
	if mY.MC <= mX.MC {
		t.Fatalf("Y-link MC %f should exceed X-link MC %f", mY.MC, mX.MC)
	}
}
