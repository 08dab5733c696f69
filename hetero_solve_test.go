package topomap

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/taskgraph"
)

// Heterogeneous-processor subsystem tests: the homogeneous degeneracy
// (explicit unit loads and speeds lower to the exact code paths of
// their absent spellings), worker-count determinism of the balance
// stage and the HET mapper, and the makespan win of the hetero-aware
// path over a hetero-blind winner on the skewed mlpipe workload.

// unitLoadGraph returns tg with its load vector replaced (nil strips
// loads; a slice installs them) without touching the shared CSR.
func withLoads(tg *TaskGraph, vw []int64) *TaskGraph {
	g := *tg.G
	g.VW = vw
	return &TaskGraph{G: &g, K: tg.K}
}

// TestSolveHomogeneousDegeneracy pins the canonicalization invariant
// at the engine: a graph spelling out all-unit loads and an allocation
// spelling out all-unit speeds must produce byte-identical rankfiles
// and metrics to the absent spellings, for every registered mapper.
func TestSolveHomogeneousDegeneracy(t *testing.T) {
	tg, topo, a := engineFixture(t, 128)
	base := withLoads(tg, nil)
	ones := make([]int64, tg.G.N())
	for i := range ones {
		ones[i] = 1
	}
	spelled := withLoads(tg, ones)
	aUnit := *a
	aUnit.Speeds = make([]float64, len(a.Nodes))
	for i := range aUnit.Speeds {
		aUnit.Speeds[i] = 1
	}

	engBase, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	engUnit, err := NewEngine(topo, &aUnit)
	if err != nil {
		t.Fatal(err)
	}
	for _, mp := range RegisteredMappers() {
		if strings.HasPrefix(string(mp), "TEST-") {
			continue
		}
		if MapperCapsOf(mp).NeedsCoords {
			continue // coordinate-free fixture; see TestSolveCoordinateDegeneracy
		}
		want, err := engBase.RunSolve(context.Background(), base, Solve{Mapper: mp, Seed: 1})
		if err != nil {
			t.Fatalf("%s: baseline: %v", mp, err)
		}
		got, err := engUnit.RunSolve(context.Background(), spelled, Solve{Mapper: mp, Seed: 1})
		if err != nil {
			t.Fatalf("%s: unit-spelled: %v", mp, err)
		}
		if !reflect.DeepEqual(got.GroupOf, want.GroupOf) || !reflect.DeepEqual(got.NodeOf, want.NodeOf) {
			t.Fatalf("%s: placement diverged between absent and unit-spelled loads/speeds", mp)
		}
		if got.Metrics != want.Metrics {
			t.Fatalf("%s: metrics diverged:\n absent %+v\n spelled %+v", mp, want.Metrics, got.Metrics)
		}
		wantRank := new(strings.Builder)
		gotRank := new(strings.Builder)
		if err := WriteRankOrder(wantRank, want.Placement(), a); err != nil {
			t.Fatal(err)
		}
		if err := WriteRankOrder(gotRank, got.Placement(), &aUnit); err != nil {
			t.Fatal(err)
		}
		if gotRank.String() != wantRank.String() {
			t.Fatalf("%s: rankfile diverged between absent and unit-spelled loads/speeds", mp)
		}
	}
}

// heteroFixture builds the skewed heterogeneous instance the
// determinism and makespan tests share: an mlpipe task graph (skewed
// loads baked in) on a sparse torus allocation where a third of the
// nodes are 4x accelerators.
func heteroFixture(t *testing.T, stages, width int) (*TaskGraph, *Torus, *Allocation) {
	t.Helper()
	tg, err := taskgraph.MLPipe(stages, width, 3)
	if err != nil {
		t.Fatal(err)
	}
	topo := NewHopperTorus(8, 8, 8)
	a, err := SparseAllocation(topo, (tg.K+15)/16, 1)
	if err != nil {
		t.Fatal(err)
	}
	a.Speeds = make([]float64, len(a.Nodes))
	for i := range a.Speeds {
		a.Speeds[i] = 1
		if i%3 == 0 {
			a.Speeds[i] = 4
		}
	}
	return tg, topo, a
}

// TestSolveHeteroWorkerDeterminism: the balance stage and the HET
// mapper are byte-identical at any worker count.
func TestSolveHeteroWorkerDeterminism(t *testing.T) {
	tg, topo, a := heteroFixture(t, 16, 16)
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, mp := range []Mapper{HET, UWH} {
		var want *MapResult
		for _, workers := range []int{1, 2, 8} {
			res, err := eng.RunSolve(context.Background(), tg, Solve{Mapper: mp, Seed: 1, Workers: workers, Balance: true})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", mp, workers, err)
			}
			if want == nil {
				want = res
				continue
			}
			if !reflect.DeepEqual(res.GroupOf, want.GroupOf) || !reflect.DeepEqual(res.NodeOf, want.NodeOf) {
				t.Fatalf("%s: placement diverged at workers=%d", mp, workers)
			}
			if res.Metrics != want.Metrics {
				t.Fatalf("%s: metrics diverged at workers=%d:\n %+v\n vs %+v", mp, workers, want.Metrics, res.Metrics)
			}
		}
		if want.Metrics.Makespan <= 0 {
			t.Fatalf("%s: heterogeneous solve reported makespan %g", mp, want.Metrics.Makespan)
		}
	}
}

// TestSolveHeteroBeatsBlindMakespan is the subsystem's reason to
// exist: on the skewed mlpipe workload, the hetero-aware path (HET
// construction + balance stage, loads and speeds visible) must finish
// strictly earlier than the best placement any mapper finds while
// blind to loads and speeds.
func TestSolveHeteroBeatsBlindMakespan(t *testing.T) {
	tg, topo, a := heteroFixture(t, 24, 16)

	// Blind pass: unit loads, unit speeds — the pre-heterogeneity
	// engine. Score each winner's placement under the TRUE loads and
	// speeds afterwards.
	aBlind := *a
	aBlind.Speeds = nil
	engBlind, err := NewEngine(topo, &aBlind)
	if err != nil {
		t.Fatal(err)
	}
	// The true speed of each group's node, for the makespan.
	speedOf := make(map[int32]float64, len(a.Nodes))
	for i, n := range a.Nodes {
		speedOf[n] = a.Speeds[i]
	}
	groupSpeeds := func(nodeOf []int32) []float64 {
		speed := make([]float64, len(nodeOf))
		for g, n := range nodeOf {
			speed[g] = speedOf[n]
		}
		return speed
	}
	blind := 0.0
	for _, mp := range RegisteredMappers() {
		if strings.HasPrefix(string(mp), "TEST-") {
			continue
		}
		if MapperCapsOf(mp).NeedsCoords {
			continue // the mlpipe workload carries no coordinates
		}
		res, err := engBlind.RunSolve(context.Background(), withLoads(tg, nil), Solve{Mapper: mp, Seed: 1})
		if err != nil {
			t.Fatalf("%s: blind: %v", mp, err)
		}
		ms, _ := metrics.LoadSummary(tg.G, res.Placement(), groupSpeeds(res.NodeOf))
		if blind == 0 || ms < blind {
			blind = ms
		}
	}

	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunSolve(context.Background(), tg, Solve{Mapper: HET, Seed: 1, Balance: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Makespan >= blind {
		t.Fatalf("hetero-aware makespan %g did not beat the best blind makespan %g", res.Metrics.Makespan, blind)
	}
}
