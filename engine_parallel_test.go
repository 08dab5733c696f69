package topomap

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/partitioners"
)

// Parallel-pipeline tests: Solve.Workers must change wall-clock
// only, never bytes. These run under `make race` (the -run pattern
// matches Engine), which makes them the proof that the solve's
// forked subtasks touch disjoint state.

// rankfileBytes renders the canonical rankfile of a result — the
// wire-visible artifact the determinism contract is stated over.
func rankfileBytes(t *testing.T, res *MapResult, a *Allocation) string {
	t.Helper()
	var sb strings.Builder
	if err := WriteRankOrder(&sb, res.Placement(), a); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestEngineParallelDeterminism is the tentpole contract: for every
// registered mapper, the same request produces a byte-identical
// rankfile (and placement, and metrics) at workers = 1, 2 and 8.
func TestEngineParallelDeterminism(t *testing.T) {
	tg, topo, a := engineFixture(t, 128)
	// The coordinate-requiring mappers (GEOM, SFCM) sweep too, on the
	// same fixture with synthetic coordinates attached — their
	// bisection forks on the same worker pool as everyone else's.
	tgc := withTestCoords(t, tg)
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, mp := range RegisteredMappers() {
		if strings.HasPrefix(string(mp), "TEST-") {
			continue // registered by other tests in this binary
		}
		tasks := tg
		if MapperCapsOf(mp).NeedsCoords {
			tasks = tgc
		}
		base, err := eng.RunSolve(context.Background(), tasks, Solve{Mapper: mp, Seed: 3, Workers: 1})
		if err != nil {
			t.Fatalf("%s: serial: %v", mp, err)
		}
		baseRF := rankfileBytes(t, base, a)
		for _, workers := range []int{2, 8} {
			got, err := eng.RunSolve(context.Background(), tasks, Solve{Mapper: mp, Seed: 3, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", mp, workers, err)
			}
			if !reflect.DeepEqual(got.GroupOf, base.GroupOf) {
				t.Fatalf("%s workers=%d: GroupOf diverged from workers=1", mp, workers)
			}
			if !reflect.DeepEqual(got.NodeOf, base.NodeOf) {
				t.Fatalf("%s workers=%d: NodeOf diverged from workers=1", mp, workers)
			}
			if got.Metrics != base.Metrics {
				t.Fatalf("%s workers=%d: metrics diverged:\n w1 %+v\n w%d %+v",
					mp, workers, base.Metrics, workers, got.Metrics)
			}
			if rf := rankfileBytes(t, got, a); rf != baseRF {
				t.Fatalf("%s workers=%d: rankfile bytes diverged from workers=1", mp, workers)
			}
		}
	}
}

// TestRefineMCParallelDeterminism pins the parallel Algorithm 3
// contract through the whole engine pipeline: the congestion-refining
// mappers (UMC on the volume graph, UMMC on the message graph) must
// produce byte-identical rankfiles, placements and metrics at
// workers = 1, 2 and 8 on both a torus and a dragonfly. The instance
// is dense enough (coarse graph of 64 allocated nodes) that candidate
// scoring genuinely fans out rather than taking the gated serial
// path.
func TestRefineMCParallelDeterminism(t *testing.T) {
	tg := ringTaskGraph(1024, 6)

	torusTopo := NewHopperTorus(8, 8, 8)
	ta, err := SparseAllocation(torusTopo, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	dfTopo, err := NewDragonfly(3, 10e9, 5e9, 4e9)
	if err != nil {
		t.Fatal(err)
	}
	da, err := DragonflySparseHosts(dfTopo, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	topos := []struct {
		name string
		topo Topology
		a    *Allocation
	}{{"torus", torusTopo, ta}, {"dragonfly", dfTopo, da}}

	for _, tc := range topos {
		eng, err := NewEngine(tc.topo, tc.a)
		if err != nil {
			t.Fatal(err)
		}
		for _, mp := range []Mapper{UMC, UMMC} {
			base, err := eng.RunSolve(context.Background(), tg, Solve{Mapper: mp, Seed: 7, Workers: 1})
			if err != nil {
				t.Fatalf("%s/%s serial: %v", tc.name, mp, err)
			}
			baseRF := rankfileBytes(t, base, tc.a)
			for _, workers := range []int{2, 8} {
				got, err := eng.RunSolve(context.Background(), tg, Solve{Mapper: mp, Seed: 7, Workers: workers})
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", tc.name, mp, workers, err)
				}
				if !reflect.DeepEqual(got.NodeOf, base.NodeOf) || !reflect.DeepEqual(got.GroupOf, base.GroupOf) {
					t.Fatalf("%s/%s workers=%d: placement diverged from workers=1", tc.name, mp, workers)
				}
				if got.Metrics != base.Metrics {
					t.Fatalf("%s/%s workers=%d: metrics diverged:\n w1 %+v\n w%d %+v",
						tc.name, mp, workers, base.Metrics, workers, got.Metrics)
				}
				if rf := rankfileBytes(t, got, tc.a); rf != baseRF {
					t.Fatalf("%s/%s workers=%d: rankfile bytes diverged", tc.name, mp, workers)
				}
			}
		}
	}
}

// TestSolveUMLWorkerDeterminism pins UML's cluster-level refinement
// across worker counts at 128 groups: there the hierarchy holds
// clusters of 16 or more groups, whose candidate swaps are scored on
// the worker pool, which never happens at 64 groups.
func TestSolveUMLWorkerDeterminism(t *testing.T) {
	tg := ringTaskGraph(2048, 6)
	topo := NewHopperTorus(8, 8, 8)
	a, err := SparseAllocation(topo, 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	base, err := eng.RunSolve(context.Background(), tg, Solve{Mapper: UML, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	baseRF := rankfileBytes(t, base, a)
	for _, workers := range []int{2, 8} {
		got, err := eng.RunSolve(context.Background(), tg, Solve{Mapper: UML, Seed: 1, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got.NodeOf, base.NodeOf) || !reflect.DeepEqual(got.GroupOf, base.GroupOf) {
			t.Fatalf("workers=%d: placement diverged from workers=1", workers)
		}
		if got.Metrics != base.Metrics {
			t.Fatalf("workers=%d: metrics diverged:\n w1 %+v\n w%d %+v", workers, base.Metrics, workers, got.Metrics)
		}
		if rf := rankfileBytes(t, got, a); rf != baseRF {
			t.Fatalf("workers=%d: rankfile bytes diverged", workers)
		}
	}
}

// ringTaskGraph builds a ring of n tasks with deg extra deterministic
// chords per vertex — a connected, moderately dense task graph with
// no RNG dependency.
func ringTaskGraph(n, deg int) *TaskGraph {
	var us, vs []int32
	var ws []int64
	add := func(a, b int32, w int64) {
		us = append(us, a, b)
		vs = append(vs, b, a)
		ws = append(ws, w, w)
	}
	for i := 0; i < n; i++ {
		add(int32(i), int32((i+1)%n), 100)
		for d := 0; d < deg; d++ {
			// Deterministic chord pattern: varied strides spread the
			// volume so congestion refinement has real work.
			stride := 2 + (i*7+d*13)%(n/2)
			add(int32(i), int32((i+stride)%n), int64(1+(i+d)%9))
		}
	}
	return &TaskGraph{G: FromEdges(n, us, vs, ws), K: n}
}

// TestRefineMCCancellationMidRefinement: a deadline that lands inside
// the congestion-refinement stage of a UMC solve must surface as the
// context error well before an uncancelled solve would finish.
func TestRefineMCCancellationMidRefinement(t *testing.T) {
	tg := ringTaskGraph(1024, 6)
	topo := NewHopperTorus(8, 8, 8)
	a, err := SparseAllocation(topo, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	// Warm run to measure the instance (and warm the arena).
	if _, err := eng.RunSolve(context.Background(), tg, Solve{Mapper: UMC, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
	defer cancel()
	began := time.Now()
	_, err = eng.RunSolve(ctx, tg, Solve{Mapper: UMC, Seed: 7, Workers: 2})
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(began); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestEngineParallelDefaultMatchesExplicit: a request without the
// option (host default) must still match workers=1 — the default may
// only change speed.
func TestEngineParallelDefaultMatchesExplicit(t *testing.T) {
	tg, topo, a := engineFixture(t, 128)
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := eng.RunSolve(context.Background(), tg, Solve{Mapper: UWH, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	def, err := eng.RunSolve(context.Background(), tg, Solve{Mapper: UWH, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def.NodeOf, serial.NodeOf) || !reflect.DeepEqual(def.GroupOf, serial.GroupOf) {
		t.Fatal("default parallelism diverged from workers=1")
	}
}

// TestEngineParallelHeterogeneous covers the capacity-repair path:
// non-uniform processor counts with parallel workers must reproduce
// the serial placement and still respect every node capacity.
func TestEngineParallelHeterogeneous(t *testing.T) {
	topo := NewHopperTorus(6, 6, 6)
	a := &Allocation{
		Nodes:        []int32{3, 40, 77, 101, 130, 171},
		ProcsPerNode: []int{24, 8, 16, 24, 8, 16}, // 96 procs
	}
	procs := a.TotalProcs()
	tg := spmvTaskGraph(t, "cagelike", partitioners.PATOHP, procs, 1)
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	capOf := map[int32]int{}
	for i, n := range a.Nodes {
		capOf[n] = a.ProcsPerNode[i]
	}
	for _, mp := range []Mapper{UG, UWH, UMC, UML} {
		base, err := eng.RunSolve(context.Background(), tg, Solve{Mapper: mp, Seed: 1, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", mp, err)
		}
		got, err := eng.RunSolve(context.Background(), tg, Solve{Mapper: mp, Seed: 1, Workers: 8})
		if err != nil {
			t.Fatalf("%s: %v", mp, err)
		}
		if !reflect.DeepEqual(got.NodeOf, base.NodeOf) || !reflect.DeepEqual(got.GroupOf, base.GroupOf) {
			t.Fatalf("%s: heterogeneous parallel run diverged from serial", mp)
		}
		perNode := map[int32]int{}
		for _, g := range got.GroupOf {
			perNode[got.NodeOf[g]]++
		}
		for n, cnt := range perNode {
			if cnt > capOf[n] {
				t.Fatalf("%s: node %d hosts %d tasks, capacity %d", mp, n, cnt, capOf[n])
			}
		}
	}
}

// TestEngineInSolveCancellation: with cooperative in-solve polling, a
// deadline far shorter than the solve must surface promptly as the
// context error, not only at the next stage boundary.
func TestEngineInSolveCancellation(t *testing.T) {
	tg, topo, a := engineFixture(t, 128)
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	began := time.Now()
	_, err = eng.RunSolve(ctx, tg, Solve{Mapper: UMC, Seed: 1, Workers: 2})
	if err == nil {
		t.Fatal("microsecond deadline produced a result")
	}
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// Generous bound: the solve itself takes ~10ms serial; a prompt
	// bail must come back well under a full uncancelled solve.
	if elapsed := time.Since(began); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}
