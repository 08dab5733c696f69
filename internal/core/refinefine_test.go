package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/metrics"
)

// fineFixture builds a 64-task path graph grouped 8 tasks per node on
// 8 allocated nodes, with a deliberately scrambled grouping.
func fineFixture(t *testing.T) (*graph.Graph, []int32, []int32, interface {
	HopDist(a, b int) int
	Nodes() int
}) {
	t.Helper()
	topo, a := fixture(t, 8, 51)
	var us, vs []int32
	var ws []int64
	for i := 0; i < 63; i++ {
		us = append(us, int32(i), int32(i+1))
		vs = append(vs, int32(i+1), int32(i))
		ws = append(ws, 7, 7)
	}
	g := graph.FromEdges(64, us, vs, ws, nil)
	group := make([]int32, 64)
	for i := range group {
		group[i] = int32((i * 5) % 8) // scrambled: neighbours split apart
	}
	nodeOf := make([]int32, 8)
	copy(nodeOf, a.Nodes[:8])
	return g, group, nodeOf, topo
}

func TestRefineWHFineImprovesWH(t *testing.T) {
	g, group, nodeOf, topo := fineFixture(t)
	_ = topo
	tp, _ := fixture(t, 8, 51)
	pl := &metrics.Placement{GroupOf: group, NodeOf: nodeOf}
	before := metrics.Compute(g, tp, pl)
	whGain, volGain := RefineWHFine(g, table(t, tp, nodeOf), group, nodeOf, RefineOptions{})
	after := metrics.Compute(g, tp, pl)
	if after.WH > before.WH {
		t.Fatalf("fine refinement worsened WH: %d -> %d", before.WH, after.WH)
	}
	if whGain < 0 || volGain < 0 {
		t.Fatalf("negative gains: wh %d vol %d (volume increase must be rejected)", whGain, volGain)
	}
	if after.ICV > before.ICV {
		t.Fatalf("fine refinement raised inter-node volume: %d -> %d", before.ICV, after.ICV)
	}
	if whGain > 0 && after.WH >= before.WH {
		t.Fatal("reported WH gain but metric did not improve")
	}
}

func TestRefineWHFinePreservesGroupSizes(t *testing.T) {
	g, group, nodeOf, _ := fineFixture(t)
	tp, _ := fixture(t, 8, 51)
	sizeBefore := make([]int, 8)
	for _, gr := range group {
		sizeBefore[gr]++
	}
	RefineWHFine(g, table(t, tp, nodeOf), group, nodeOf, RefineOptions{})
	sizeAfter := make([]int, 8)
	for _, gr := range group {
		sizeAfter[gr]++
	}
	for i := range sizeBefore {
		if sizeBefore[i] != sizeAfter[i] {
			t.Fatalf("group %d size changed: %d -> %d (capacity violation)", i, sizeBefore[i], sizeAfter[i])
		}
	}
}

func TestRefineWHFineGainAccounting(t *testing.T) {
	g, group, nodeOf, _ := fineFixture(t)
	tp, _ := fixture(t, 8, 51)
	pl := &metrics.Placement{GroupOf: group, NodeOf: nodeOf}
	before := metrics.Compute(g, tp, pl)
	whGain, volGain := RefineWHFine(g, table(t, tp, nodeOf), group, nodeOf, RefineOptions{})
	after := metrics.Compute(g, tp, pl)
	// The doubled-edge accounting of the refinement equals the
	// directed-graph metric exactly (symmetric graph stores both
	// directions).
	if int64(before.WH-after.WH) != whGain {
		t.Fatalf("WH gain %d != metric delta %d", whGain, before.WH-after.WH)
	}
	if int64(before.ICV-after.ICV) != volGain {
		t.Fatalf("vol gain %d != metric delta %d", volGain, before.ICV-after.ICV)
	}
}

// TestRefineWHFineCancelled: under an already-cancelled context the
// fine refinement stops at its first poll, with no gain reported and
// the grouping untouched, although the same run uncancelled gains.
func TestRefineWHFineCancelled(t *testing.T) {
	g, group, nodeOf, _ := fineFixture(t)
	tp, _ := fixture(t, 8, 51)
	tab := table(t, tp, nodeOf)
	if whGain, _ := RefineWHFine(g, tab, append([]int32(nil), group...), nodeOf, RefineOptions{}); whGain == 0 {
		t.Fatal("fixture gains nothing uncancelled; nothing to cancel")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := append([]int32(nil), group...)
	whGain, volGain := RefineWHFine(g, tab, group, nodeOf, RefineOptions{Exec: execWithWorkers(ctx, 1)})
	if whGain != 0 || volGain != 0 {
		t.Fatalf("pre-cancelled refinement gained WH %d, volume %d", whGain, volGain)
	}
	if !reflect.DeepEqual(group, before) {
		t.Fatal("pre-cancelled refinement changed the grouping")
	}
}
