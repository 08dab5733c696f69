package metrics

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/torus"
)

// TestMetricsInvariantsProperty checks the definitional relations of
// §II on random task graphs and placements:
//
//	AC  <= MC    (average over used links cannot exceed the max)
//	AMC <= MMC
//	AMC * UsedLinks == TH  (paper: "TH = sum of Congestion(e)")
//	WH  >= TH    when every edge weight is >= 1
//	UsedLinks <= Links
//	MNRV <= ICV, MNRM <= ICM
func TestMetricsInvariantsProperty(t *testing.T) {
	topo := torus.NewHopper3D(5, 4, 3)
	f := func(seed int64, nn uint8) bool {
		n := 4 + int(nn%24)
		g := graph.RandomConnected(n, 3*n, 50, seed)
		rng := rand.New(rand.NewSource(seed * 31))
		nodeOf := make([]int32, n)
		for i := range nodeOf {
			nodeOf[i] = int32(rng.Intn(topo.Nodes()))
		}
		m := Compute(g, topo, &Placement{NodeOf: nodeOf})
		if m.AC > m.MC+1e-12 || m.AMC > float64(m.MMC)+1e-12 {
			return false
		}
		if m.UsedLinks > topo.Links() || m.UsedLinks < 0 {
			return false
		}
		sumCong := m.AMC * float64(m.UsedLinks)
		if diff := sumCong - float64(m.TH); diff > 1e-6 || diff < -1e-6 {
			return false
		}
		if m.WH < m.TH { // weights are >= 1 in RandomConnected
			return false
		}
		if m.MNRV > m.ICV || m.MNRM > m.ICM {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsPermutationInvariance: relabeling the tasks of a
// symmetric graph while permuting the placement accordingly leaves
// every metric unchanged.
func TestMetricsPermutationInvariance(t *testing.T) {
	topo := torus.NewHopper3D(4, 4, 4)
	g := graph.RandomConnected(12, 30, 40, 9).Symmetrize(nil)
	rng := rand.New(rand.NewSource(4))
	nodeOf := make([]int32, 12)
	for i := range nodeOf {
		nodeOf[i] = int32(rng.Intn(topo.Nodes()))
	}
	base := Compute(g, topo, &Placement{NodeOf: nodeOf})

	perm := rng.Perm(12)
	// Relabeled graph: vertex v becomes perm[v].
	var us, vs []int32
	var ws []int64
	for v := 0; v < g.N(); v++ {
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			us = append(us, int32(perm[v]))
			vs = append(vs, int32(perm[g.Adj[i]]))
			ws = append(ws, g.EdgeWeight(int(i)))
		}
	}
	relabeled := graph.FromEdges(12, us, vs, ws, nil)
	permNode := make([]int32, 12)
	for v := 0; v < 12; v++ {
		permNode[perm[v]] = nodeOf[v]
	}
	got := Compute(relabeled, topo, &Placement{NodeOf: permNode})
	if got != base {
		t.Fatalf("metrics changed under task relabeling:\n base %+v\n got  %+v", base, got)
	}
}

// TestMetricsMonotoneUnderExtraEdge: adding a new inter-node message
// can only increase (or keep) each cumulative metric.
func TestMetricsMonotoneUnderExtraEdge(t *testing.T) {
	topo := torus.NewHopper3D(4, 4, 4)
	us := []int32{0, 1}
	vs := []int32{1, 2}
	ws := []int64{10, 20}
	nodeOf := []int32{0, 7, 21, 42}
	before := Compute(graph.FromEdges(4, us, vs, ws, nil), topo, &Placement{NodeOf: nodeOf})
	us = append(us, 2)
	vs = append(vs, 3)
	ws = append(ws, 30)
	after := Compute(graph.FromEdges(4, us, vs, ws, nil), topo, &Placement{NodeOf: nodeOf})
	if after.TH < before.TH || after.WH < before.WH || after.MMC < before.MMC ||
		after.MC < before.MC || after.ICV < before.ICV || after.ICM < before.ICM ||
		after.UsedLinks < before.UsedLinks {
		t.Fatalf("metric decreased when a message was added:\n before %+v\n after  %+v", before, after)
	}
}
