package topomap

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/alloc"
)

// Geometric-mapper tests: the coordinate degeneracy (attaching and
// stripping coordinates must be invisible to every coordinate-free
// mapper), the quality claim on a stencil (GEOM and SFCM beat the
// order-split baseline's hop-bytes), worker-count determinism of the
// multi-jagged bisection, prompt cancellation mid-bisection, and the
// NeedsCoords capability gates at the engine and the portfolio.

// withTestCoords returns a copy of tg carrying synthetic 3D
// coordinates (tasks laid out on the smallest cube that fits them)
// without touching the shared CSR — the fixture the coordinate
// mappers run on where the test graph itself has no geometry.
func withTestCoords(t *testing.T, tg *TaskGraph) *TaskGraph {
	t.Helper()
	g := *tg.G
	out := &TaskGraph{G: &g, K: tg.K}
	coords := make([]float64, tg.K*3)
	side := 1
	for side*side*side < tg.K {
		side++
	}
	for i := 0; i < tg.K; i++ {
		coords[i*3] = float64(i % side)
		coords[i*3+1] = float64(i / side % side)
		coords[i*3+2] = float64(i / (side * side))
	}
	if err := out.SetCoords(3, coords); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSolveCoordinateDegeneracy pins the unit-is-nil discipline for
// coordinates: a graph that carried coordinates and had them stripped
// must behave byte-identically to one that never carried them, for
// every coordinate-free mapper — placement, metrics and rankfile.
func TestSolveCoordinateDegeneracy(t *testing.T) {
	tg, topo, a := engineFixture(t, 128)
	attached := withTestCoords(t, tg)
	if !attached.HasCoords() {
		t.Fatal("fixture failed to attach coordinates")
	}
	stripped := withTestCoords(t, tg)
	if err := stripped.SetCoords(0, nil); err != nil {
		t.Fatal(err)
	}
	if stripped.HasCoords() || stripped.Dim != 0 || stripped.Coords != nil {
		t.Fatal("SetCoords(0, nil) did not restore the canonical absent spelling")
	}

	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, mp := range RegisteredMappers() {
		if strings.HasPrefix(string(mp), "TEST-") {
			continue // registered by other tests in this binary
		}
		if MapperCapsOf(mp).NeedsCoords {
			continue // cannot run without coordinates by construction
		}
		want, err := eng.RunSolve(context.Background(), tg, Solve{Mapper: mp, Seed: 1})
		if err != nil {
			t.Fatalf("%s: coordinate-free: %v", mp, err)
		}
		got, err := eng.RunSolve(context.Background(), stripped, Solve{Mapper: mp, Seed: 1})
		if err != nil {
			t.Fatalf("%s: stripped: %v", mp, err)
		}
		if !reflect.DeepEqual(got.GroupOf, want.GroupOf) || !reflect.DeepEqual(got.NodeOf, want.NodeOf) {
			t.Fatalf("%s: placement diverged between never-attached and stripped coordinates", mp)
		}
		if got.Metrics != want.Metrics {
			t.Fatalf("%s: metrics diverged:\n absent   %+v\n stripped %+v", mp, want.Metrics, got.Metrics)
		}
		if rankfileBytes(t, got, a) != rankfileBytes(t, want, a) {
			t.Fatalf("%s: rankfile diverged between never-attached and stripped coordinates", mp)
		}
		// Coordinates present must also be invisible to coordinate-free
		// mappers: they ignore geometry entirely.
		withC, err := eng.RunSolve(context.Background(), attached, Solve{Mapper: mp, Seed: 1})
		if err != nil {
			t.Fatalf("%s: with coords: %v", mp, err)
		}
		if !reflect.DeepEqual(withC.GroupOf, want.GroupOf) || !reflect.DeepEqual(withC.NodeOf, want.NodeOf) ||
			withC.Metrics != want.Metrics {
			t.Fatalf("%s: attaching coordinates changed a coordinate-free mapper's output", mp)
		}
	}
}

// stencilFixture builds the scale where geometry pays: a 16x16x16
// halo-exchange stencil (4096 tasks, coordinates = grid positions) on
// 256 sparse nodes of an 8x8x8 Hopper torus.
func stencilFixture(t *testing.T) (*TaskGraph, *Torus, *Allocation) {
	t.Helper()
	tg, err := StencilTaskGraph(16, 16, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !tg.HasCoords() || tg.Dim != 3 {
		t.Fatal("stencil generator did not attach 3D coordinates")
	}
	topo := NewHopperTorus(8, 8, 8)
	a, err := SparseAllocation(topo, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tg, topo, a
}

// TestGeomBeatsOrderOnStencil is the geometric pair's reason to
// exist: on a structured stencil where task coordinates mirror the
// communication pattern, both GEOM and SFCM must land strictly fewer
// weighted hop-bytes than the order-split baseline DEF, on sparse and
// contiguous allocations alike.
func TestGeomBeatsOrderOnStencil(t *testing.T) {
	tg, topo, _ := stencilFixture(t)
	for _, mode := range []string{"sparse", "contiguous"} {
		var a *Allocation
		var err error
		if mode == "sparse" {
			a, err = SparseAllocation(topo, 256, 1)
		} else {
			a, err = alloc.Generate(topo, 256, alloc.Config{Mode: alloc.Contiguous, Seed: 1})
		}
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(topo, a)
		if err != nil {
			t.Fatal(err)
		}
		base, err := eng.RunSolve(context.Background(), tg, Solve{Mapper: DEF, Seed: 1})
		if err != nil {
			t.Fatalf("%s/DEF: %v", mode, err)
		}
		for _, mp := range []Mapper{GEOM, SFCM} {
			res, err := eng.RunSolve(context.Background(), tg, Solve{Mapper: mp, Seed: 1})
			if err != nil {
				t.Fatalf("%s/%s: %v", mode, mp, err)
			}
			if res.Metrics.WH >= base.Metrics.WH {
				t.Fatalf("%s: %s hop-bytes %d did not beat DEF's %d",
					mode, mp, res.Metrics.WH, base.Metrics.WH)
			}
		}
	}
}

// TestGeomWorkerDeterminism: the multi-jagged bisection forks per
// subtree, so this is the proof its per-subtree seeding makes worker
// count a wall-clock knob only — byte-identical rankfiles at 1, 2
// and 8 workers on the full 4096-task stencil.
func TestGeomWorkerDeterminism(t *testing.T) {
	tg, topo, a := stencilFixture(t)
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, mp := range []Mapper{GEOM, SFCM} {
		var want *MapResult
		var wantRF string
		for _, workers := range []int{1, 2, 8} {
			res, err := eng.RunSolve(context.Background(), tg, Solve{Mapper: mp, Seed: 7, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", mp, workers, err)
			}
			rf := rankfileBytes(t, res, a)
			if want == nil {
				want, wantRF = res, rf
				continue
			}
			if !reflect.DeepEqual(res.GroupOf, want.GroupOf) || !reflect.DeepEqual(res.NodeOf, want.NodeOf) {
				t.Fatalf("%s: placement diverged at workers=%d", mp, workers)
			}
			if res.Metrics != want.Metrics {
				t.Fatalf("%s: metrics diverged at workers=%d:\n %+v\n vs %+v", mp, workers, want.Metrics, res.Metrics)
			}
			if rf != wantRF {
				t.Fatalf("%s: rankfile bytes diverged at workers=%d", mp, workers)
			}
		}
	}
}

// TestGeomCancellationMidSolve: a deadline landing inside the
// multi-jagged bisection of a GEOM solve must surface as the context
// error promptly, not after the full recursion completes.
func TestGeomCancellationMidSolve(t *testing.T) {
	tg, topo, a := stencilFixture(t)
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	// Warm run to measure the instance (and warm the arena).
	if _, err := eng.RunSolve(context.Background(), tg, Solve{Mapper: GEOM, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
	defer cancel()
	began := time.Now()
	_, err = eng.RunSolve(ctx, tg, Solve{Mapper: GEOM, Seed: 7, Workers: 2})
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(began); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestGeomNeedsCoordsGates pins every gate the NeedsCoords capability
// drives: the engine's refusal on a coordinate-free graph, the
// portfolio's explicit-candidate refusal, and the CompatibleMappers /
// CompatibleMappersFor split.
func TestGeomNeedsCoordsGates(t *testing.T) {
	tg, topo, a := engineFixture(t, 128)
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, mp := range []Mapper{GEOM, SFCM} {
		if !MapperCapsOf(mp).NeedsCoords {
			t.Fatalf("%s does not declare NeedsCoords", mp)
		}
		if _, err := eng.RunSolve(context.Background(), tg, Solve{Mapper: mp, Seed: 1}); err == nil {
			t.Fatalf("%s ran on a coordinate-free task graph", mp)
		} else if !strings.Contains(err.Error(), "coordinates") {
			t.Fatalf("%s: error %q does not mention coordinates", mp, err)
		}
	}
	if _, err := eng.RunPortfolio(context.Background(), PortfolioRequest{
		Tasks:      tg,
		Candidates: []Solve{{Mapper: GEOM, Seed: 1}},
	}); err == nil {
		t.Fatal("portfolio accepted a GEOM candidate on a coordinate-free graph")
	} else if !strings.Contains(err.Error(), "coordinates") {
		t.Fatalf("portfolio error %q does not mention coordinates", err)
	}

	inSet := func(set []Mapper, mp Mapper) bool {
		for _, m := range set {
			if m == mp {
				return true
			}
		}
		return false
	}
	always := eng.CompatibleMappers()
	bare := eng.CompatibleMappersFor(tg)
	withC := eng.CompatibleMappersFor(withTestCoords(t, tg))
	for _, mp := range []Mapper{GEOM, SFCM} {
		if inSet(always, mp) || inSet(bare, mp) {
			t.Fatalf("%s offered without a coordinate-carrying graph", mp)
		}
		if !inSet(withC, mp) {
			t.Fatalf("%s missing from CompatibleMappersFor on a coordinate-carrying graph", mp)
		}
	}
	if !reflect.DeepEqual(bare, always) {
		t.Fatal("CompatibleMappersFor on a coordinate-free graph diverged from CompatibleMappers")
	}
}
