package topomap

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/graph"
	"repro/internal/partitioners"
	"repro/internal/registry"
)

// Engine API tests: golden equivalence against metrics on the raw
// topology, topology generality, batch determinism, and the registry
// surface.

// engineFixture builds one task graph and a sparse torus allocation
// shared by the engine tests.
func engineFixture(t *testing.T, procs int) (*TaskGraph, *Torus, *Allocation) {
	t.Helper()
	tg := spmvTaskGraph(t, "cagelike", partitioners.PATOHP, procs, 1)
	topo := NewHopperTorus(6, 6, 6)
	a, err := SparseAllocation(topo, procs/16, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tg, topo, a
}

// TestEngineGoldenEquivalence is the API redesign's conservation law:
// the metrics Engine.RunSolve reports through its route table must
// equal what EvaluateMetrics computes for the same placement on the
// raw torus, routing every pair through the base topology, for every
// registered mapper. TestSolveDigests pins the placements themselves,
// and routecache's tests pin the table's answers to the base's on
// every allocated pair.
func TestEngineGoldenEquivalence(t *testing.T) {
	tg, topo, a := engineFixture(t, 128)
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
		got, err := eng.RunSolve(context.Background(), tasks, Solve{Mapper: mp, Seed: 1})
		if err != nil {
			t.Fatalf("%s: engine: %v", mp, err)
		}
		if want := EvaluateMetrics(tasks, topo, got.Placement()); got.Metrics != want {
			t.Fatalf("%s: metrics diverged:\n raw torus %+v\n engine    %+v", mp, want, got.Metrics)
		}
	}
}

// TestEngineTopologyGeneric runs the same Solve on a fat tree and a
// dragonfly — the §III "various topologies" claim as an API property.
func TestEngineTopologyGeneric(t *testing.T) {
	tg, _, _ := engineFixture(t, 64)
	tgc := withTestCoords(t, tg)
	ft, err := NewFatTree(8, 10e9, 2)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := FatTreeSparseHosts(ft, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	df, err := NewDragonfly(3, 10e9, 5e9, 4e9)
	if err != nil {
		t.Fatal(err)
	}
	da, err := DragonflySparseHosts(df, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		topo Topology
		a    *Allocation
	}{{"fattree", ft, fa}, {"dragonfly", df, da}} {
		eng, err := NewEngine(tc.topo, tc.a)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, mp := range RegisteredMappers() {
			if strings.HasPrefix(string(mp), "TEST-") {
				continue // registered by other tests in this binary
			}
			// The geometric mappers run here too: fat trees and
			// dragonflies expose no coordinate grid, so their node order
			// falls back to allocation order — still a valid placement.
			tasks := tg
			if MapperCapsOf(mp).NeedsCoords {
				tasks = tgc
			}
			res, err := eng.RunSolve(context.Background(), tasks, Solve{Mapper: mp, Seed: 1})
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, mp, err)
			}
			if len(res.NodeOf) != tc.a.NumNodes() || len(res.GroupOf) != tg.K {
				t.Fatalf("%s/%s: result shapes wrong", tc.name, mp)
			}
			if res.Metrics.WH <= 0 {
				t.Fatalf("%s/%s: degenerate WH", tc.name, mp)
			}
			// Placements must stay on allocated hosts.
			onAlloc := map[int32]bool{}
			for _, n := range tc.a.Nodes {
				onAlloc[n] = true
			}
			for g, n := range res.NodeOf {
				if !onAlloc[n] {
					t.Fatalf("%s/%s: group %d on unallocated node %d", tc.name, mp, g, n)
				}
			}
		}
	}
}

// TestEngineRunBatchDeterministic checks the batch path: the same
// solves must yield identical placements across repeated runs and
// across worker counts, while sharing one engine (the -race run makes
// this the concurrency acceptance test too).
func TestEngineRunBatchDeterministic(t *testing.T) {
	tg, topo, a := engineFixture(t, 128)
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	var solves []Solve
	for _, mp := range Mappers() {
		for seed := int64(1); seed <= 3; seed++ {
			solves = append(solves, Solve{Mapper: mp, Seed: seed})
		}
	}
	ctx := context.Background()
	base, err := eng.RunBatch(ctx, tg, solves, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 8} {
		got, err := eng.RunBatch(ctx, tg, solves, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range solves {
			if !reflect.DeepEqual(got[i].NodeOf, base[i].NodeOf) ||
				!reflect.DeepEqual(got[i].GroupOf, base[i].GroupOf) {
				t.Fatalf("workers=%d: solve %d (%s seed %d) diverged from serial run",
					workers, i, solves[i].Mapper, solves[i].Seed)
			}
		}
	}
}

// dragonflyFixture builds the dragonfly golden instance: a 128-task
// cagelike/PATOH graph on 8 sparse hosts of a canonical h=3
// dragonfly.
func dragonflyFixture(t *testing.T) (*TaskGraph, *Dragonfly, *Allocation) {
	t.Helper()
	tg := spmvTaskGraph(t, "cagelike", partitioners.PATOHP, 128, 1)
	df, err := NewDragonfly(3, 10e9, 5e9, 4e9)
	if err != nil {
		t.Fatal(err)
	}
	da, err := DragonflySparseHosts(df, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	return tg, df, da
}

// TestEngineDragonflyMultipathGolden pins the engine's output on a
// dragonfly with the multipath-capable mapper (UMCA enumerates
// minimal routes through the cached view): PR 1's golden test only
// pinned torus and fat-tree behaviour. The dragonfly's minimal routes
// are unique, so UMCA must agree exactly with UMC — and both must
// reproduce the pinned placement and metrics.
func TestEngineDragonflyMultipathGolden(t *testing.T) {
	tg, df, da := dragonflyFixture(t)
	wantNodes := []int32{223, 224, 225, 226, 230, 231, 233, 234}
	if !reflect.DeepEqual(da.Nodes, wantNodes) {
		t.Fatalf("allocation drifted: %v, want %v", da.Nodes, wantNodes)
	}
	eng, err := NewEngine(df, da)
	if err != nil {
		t.Fatal(err)
	}
	wantNodeOf := []int32{226, 225, 224, 223, 230, 234, 233, 231}
	var results []*MapResult
	for _, mp := range []Mapper{UMCA, UMC} {
		res, err := eng.RunSolve(context.Background(), tg, Solve{Mapper: mp, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", mp, err)
		}
		if !reflect.DeepEqual(res.NodeOf, wantNodeOf) {
			t.Fatalf("%s: NodeOf = %v, want golden %v", mp, res.NodeOf, wantNodeOf)
		}
		m := res.Metrics
		if m.TH != 5520 || m.WH != 17302 || m.MMC != 279 || m.UsedLinks != 40 {
			t.Fatalf("%s: metrics drifted from golden: %+v", mp, m)
		}
		if got := fmt.Sprintf("%.6g", m.MC); got != "1.415e-07" {
			t.Fatalf("%s: MC = %s, want golden 1.415e-07", mp, got)
		}
		results = append(results, res)
	}
	// Unique minimal routes: the adaptive variant must agree with the
	// static one bit for bit.
	if results[0].Metrics != results[1].Metrics {
		t.Fatalf("UMCA diverged from UMC on unique-minimal-route dragonfly:\n %+v\n %+v",
			results[0].Metrics, results[1].Metrics)
	}
}

// TestEngineDragonflyDeterminism re-runs the dragonfly/UMCA request
// through fresh engines and through the batch pool: every path must
// produce the identical placement.
func TestEngineDragonflyDeterminism(t *testing.T) {
	tg, df, da := dragonflyFixture(t)
	base, err := NewEngine(df, da)
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.RunSolve(context.Background(), tg, Solve{Mapper: UMCA, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Fresh engine, same answer.
	fresh, err := NewEngine(df, da)
	if err != nil {
		t.Fatal(err)
	}
	again, err := fresh.RunSolve(context.Background(), tg, Solve{Mapper: UMCA, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.NodeOf, want.NodeOf) || !reflect.DeepEqual(again.GroupOf, want.GroupOf) {
		t.Fatal("fresh engine diverged on dragonfly/UMCA")
	}
	// Batch pool, repeated solve, same answer regardless of workers.
	solves := make([]Solve, 6)
	for i := range solves {
		solves[i] = Solve{Mapper: UMCA, Seed: 1}
	}
	for _, workers := range []int{1, 4} {
		results, err := base.RunBatch(context.Background(), tg, solves, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			if !reflect.DeepEqual(res.NodeOf, want.NodeOf) {
				t.Fatalf("workers=%d: batch solve %d diverged", workers, i)
			}
		}
	}
}

// TestEngineRunContext pins the cancellation contract of RunSolve and
// RunBatch: a live context changes nothing, a dead one stops the
// pipeline between stages — and the batch still wraps the error so
// errors.Is sees through it.
func TestEngineRunContext(t *testing.T) {
	tg, topo, a := engineFixture(t, 128)
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	s := Solve{Mapper: UWH, Seed: 1}
	want, err := eng.RunSolve(context.Background(), tg, s)
	if err != nil {
		t.Fatal(err)
	}
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := eng.RunSolve(live, tg, s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.NodeOf, want.NodeOf) || !reflect.DeepEqual(got.GroupOf, want.GroupOf) {
		t.Fatal("RunSolve with a live cancellable context diverged")
	}
	batch, err := eng.RunBatch(live, tg, []Solve{s, s}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range batch {
		if !reflect.DeepEqual(res.NodeOf, want.NodeOf) || !reflect.DeepEqual(res.GroupOf, want.GroupOf) {
			t.Fatalf("RunBatch with a live context: solve %d diverged from RunSolve", i)
		}
	}
	dead, kill := context.WithCancel(context.Background())
	kill()
	if _, err := eng.RunSolve(dead, tg, s); err != context.Canceled {
		t.Fatalf("cancelled RunSolve returned %v, want context.Canceled", err)
	}
	if _, err := eng.RunBatch(dead, tg, []Solve{s}, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunBatch returned %v, want a wrapped context.Canceled", err)
	}
}

// TestRunBatchValidatesFirst: RunBatch checks every solve before any
// starts. An unknown mapper fails the batch with nil results and an
// error naming it once; under a dead context the invalid item still
// wins over item 0's cancellation, so item 0 never started.
func TestRunBatchValidatesFirst(t *testing.T) {
	tg, topo, a := engineFixture(t, 64)
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	solves := []Solve{{Mapper: UWH, Seed: 1}, {Mapper: "NOPE"}}
	results, err := eng.RunBatch(context.Background(), tg, solves, 1)
	if err == nil || results != nil {
		t.Fatalf("RunBatch = %v, %v; want nil results and an error", results, err)
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "topomap: request 1: ") || strings.Count(msg, "NOPE") != 1 {
		t.Fatalf("error %q: want it to name request 1 and the mapper NOPE once", msg)
	}
	dead, kill := context.WithCancel(context.Background())
	kill()
	if _, err := eng.RunBatch(dead, tg, solves, 1); err == nil || errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "NOPE") {
		t.Fatalf("RunBatch under a dead context = %v, want the unknown mapper before any solve", err)
	}
}

// TestEngineRequestOptions exercises the Solve knobs: the extra
// refinement pass (Refine) must never regress WH, the fine-level
// refinement (FineRefine) must report non-negative gains, and Sim must
// produce a positive simulated time.
func TestEngineRequestOptions(t *testing.T) {
	tg, topo, a := engineFixture(t, 128)
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	plain, err := eng.RunSolve(ctx, tg, Solve{Mapper: DEF, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := eng.RunSolve(ctx, tg, Solve{Mapper: DEF, Seed: 1, Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	if refined.Metrics.WH > plain.Metrics.WH {
		t.Fatalf("Refine regressed WH: %d -> %d", plain.Metrics.WH, refined.Metrics.WH)
	}
	full, err := eng.RunSolve(ctx, tg, Solve{Mapper: UWH, Seed: 1, FineRefine: true,
		Sim: &SimSpec{BytesPerUnit: 4096, Params: SimParams{Seed: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if full.FineWHGain < 0 || full.FineVolGain < 0 {
		t.Fatalf("fine refinement reported negative gains: WH %d vol %d", full.FineWHGain, full.FineVolGain)
	}
	if full.SimSeconds <= 0 {
		t.Fatalf("Sim produced non-positive time %g", full.SimSeconds)
	}
}

// TestEngineRefinementRespectsCapacities pins the stage ordering:
// the extra WH pass runs before the capacity repair, so even with
// Solve.Refine a heterogeneous allocation can never end up
// oversubscribed.
func TestEngineRefinementRespectsCapacities(t *testing.T) {
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
	for _, mp := range []Mapper{UG, UWH, UMC} {
		res, err := eng.RunSolve(context.Background(), tg, Solve{Mapper: mp, Seed: 1, Refine: true})
		if err != nil {
			t.Fatalf("%s: %v", mp, err)
		}
		perNode := map[int32]int{}
		for _, g := range res.GroupOf {
			perNode[res.NodeOf[g]]++
		}
		for n, cnt := range perNode {
			if cnt > capOf[n] {
				t.Fatalf("%s: node %d hosts %d tasks, capacity %d", mp, n, cnt, capOf[n])
			}
		}
	}
}

// TestRegisterMapperPublicAPI registers a custom mapper through the
// exported registry surface and dispatches it through the engine.
func TestRegisterMapperPublicAPI(t *testing.T) {
	const name = "TEST-REVBLOCK"
	spec := NewMapper(name, MapperCaps{BlockGrouping: true}, func(in MapperInput) ([]int32, error) {
		nodeOf := make([]int32, in.Coarse.N())
		for g := range nodeOf {
			nodeOf[g] = in.Alloc.Nodes[len(in.Alloc.Nodes)-1-g]
		}
		return nodeOf, nil
	})
	if err := RegisterMapper(spec); err != nil {
		t.Fatal(err)
	}
	if err := RegisterMapper(spec); err == nil {
		t.Fatal("duplicate registration must be rejected")
	}
	found := false
	for _, mp := range RegisteredMappers() {
		if mp == Mapper(name) {
			found = true
		}
	}
	if !found {
		t.Fatalf("RegisteredMappers misses %s", name)
	}

	tg, topo, a := engineFixture(t, 128)
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunSolve(context.Background(), tg, Solve{Mapper: Mapper(name), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for g, n := range res.NodeOf {
		if want := a.Nodes[a.NumNodes()-1-g]; n != want {
			t.Fatalf("group %d on node %d, want %d", g, n, want)
		}
	}
	if res.Metrics.WH <= 0 {
		t.Fatal("degenerate WH for custom mapper")
	}
}

// TestEngineRejectsPlacementOutsideAllocation: a mapper whose
// placement misses a group or names a node outside the allocation
// fails its own solve with an error; the stages after it, which index
// placements by allocation, never see it. The broken mappers are
// dispatched through the solve pipeline without being registered, so
// the registry-sweeping tests never meet them.
func TestEngineRejectsPlacementOutsideAllocation(t *testing.T) {
	tg, topo, a := engineFixture(t, 128)
	allocated := map[int32]bool{}
	for _, m := range a.Nodes {
		allocated[m] = true
	}
	free := int32(0)
	for allocated[free] {
		free++
	}
	broken := map[string]func(nodeOf []int32) []int32{
		"short":       func(nodeOf []int32) []int32 { return nodeOf[1:] },
		"unallocated": func(nodeOf []int32) []int32 { nodeOf[0] = free; return nodeOf },
	}
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	for name, breakIt := range broken {
		j, cancel, err := eng.newJob(context.Background(), tg, Solve{Mapper: UWH, Seed: 1, Refine: true}, 1, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		j.spec = registry.NewFunc(name, registry.Caps{}, func(in registry.Input) ([]int32, error) {
			return breakIt(append([]int32(nil), in.Alloc.Nodes[:in.Coarse.N()]...)), nil
		})
		p, err := eng.runPrefix(j.ctx, tg, false, 1, j.ex, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.finishSolve(j, tg, p); err == nil {
			t.Fatalf("%s placement accepted", name)
		}
		cancel()
	}
}

// TestMapperPlacementChecked: a registered mapper whose placement the
// later stages cannot index — too few groups, a group on a node
// outside the allocation, or several groups on one node (the stages
// after the mapper assume one group per node) — fails its own solve
// with an error naming it and wrapping ErrMapperPlacement. An 8×8
// stencil of 64 tasks fills four 16-processor nodes, so each node
// hosts exactly one group.
func TestMapperPlacementChecked(t *testing.T) {
	tg, err := StencilTaskGraph(8, 8, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	topo := NewHopperTorus(4, 4, 4)
	a, err := SparseAllocation(topo, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	registerBrokenMappers(t)
	placementsBroken.Store(true)
	defer placementsBroken.Store(false)
	for _, name := range []Mapper{"TEST-SHORT", "TEST-UNALLOCATED", "TEST-STACKED"} {
		res, err := eng.RunSolve(context.Background(), tg, Solve{Mapper: name, Seed: 1, Refine: true})
		if err == nil {
			t.Fatalf("%s: placement accepted (node of each group %v)", name, res.NodeOf)
		}
		if !strings.Contains(err.Error(), string(name)) {
			t.Fatalf("%s: error %q does not name the mapper", name, err)
		}
		if !errors.Is(err, ErrMapperPlacement) {
			t.Fatalf("%s: error %q does not wrap ErrMapperPlacement", name, err)
		}
	}
}

var brokenMappersOnce sync.Once

// placementsBroken is set only while TestMapperPlacementChecked runs.
// Until then its mappers place the allocation order, so a portfolio
// that expands to every registered mapper elsewhere in this binary
// meets valid placements.
var placementsBroken atomic.Bool

// registerBrokenMappers registers, once per process, the three
// mappers of TestMapperPlacementChecked: each starts from the
// allocation order and, while placementsBroken is set, breaks it.
func registerBrokenMappers(t *testing.T) {
	t.Helper()
	broken := map[string]func(nodeOf, alloc []int32) []int32{
		"TEST-SHORT": func(nodeOf, _ []int32) []int32 { return nodeOf[1:] },
		"TEST-UNALLOCATED": func(nodeOf, alloc []int32) []int32 {
			for free := int32(0); ; free++ {
				if !slices.Contains(alloc, free) {
					nodeOf[0] = free
					return nodeOf
				}
			}
		},
		"TEST-STACKED": func(nodeOf, _ []int32) []int32 {
			for g := range nodeOf {
				nodeOf[g] = nodeOf[0]
			}
			return nodeOf
		},
	}
	brokenMappersOnce.Do(func() {
		for name, breakIt := range broken {
			err := RegisterMapper(NewMapper(name, MapperCaps{}, func(in MapperInput) ([]int32, error) {
				nodeOf := append([]int32(nil), in.Alloc.Nodes[:in.Coarse.N()]...)
				if !placementsBroken.Load() {
					return nodeOf, nil
				}
				return breakIt(nodeOf, in.Alloc.Nodes), nil
			}))
			if err != nil {
				t.Fatal(err)
			}
		}
	})
}

// flatTopo hides every optional capability of a torus, leaving a bare
// Topology — the capability-gating test double.
type flatTopo struct{ t *Torus }

func (f flatTopo) Nodes() int                               { return f.t.Nodes() }
func (f flatTopo) HopDist(a, b int) int                     { return f.t.HopDist(a, b) }
func (f flatTopo) Diameter() int                            { return f.t.Diameter() }
func (f flatTopo) NeighborNodes(v int, dst []int32) []int32 { return f.t.NeighborNodes(v, dst) }
func (f flatTopo) Links() int                               { return f.t.Links() }
func (f flatTopo) Route(a, b int, dst []int32) []int32      { return f.t.Route(a, b, dst) }
func (f flatTopo) LinkBW(link int) float64                  { return f.t.LinkBW(link) }

// TestEngineCapabilityGate: a mapper that declares NeedsMultipath
// must be rejected on a topology that cannot enumerate minimal
// routes, with a clear error instead of a panic.
func TestEngineCapabilityGate(t *testing.T) {
	tg, topo, a := engineFixture(t, 128)
	eng, err := NewEngine(flatTopo{topo}, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunSolve(context.Background(), tg, Solve{Mapper: UMCA, Seed: 1}); err == nil {
		t.Fatal("UMCA on a non-multipath topology must fail")
	}
	// The WH family runs fine on the bare interface.
	if _, err := eng.RunSolve(context.Background(), tg, Solve{Mapper: UWH, Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineErrors pins the request error contract: more tasks than
// allocated processors, an unknown mapper, a missing task graph and a
// malformed allocation all fail cleanly.
func TestEngineErrors(t *testing.T) {
	tg, topo, _ := engineFixture(t, 128)
	small, err := SparseAllocation(topo, 2, 1) // 32 procs < 128 tasks
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(topo, small)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunSolve(context.Background(), tg, Solve{Mapper: UG, Seed: 1}); err == nil {
		t.Fatal("want error when tasks exceed allocated processors")
	}
	ok, err := SparseAllocation(topo, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err = NewEngine(topo, ok)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunSolve(context.Background(), tg, Solve{Mapper: Mapper("NOPE"), Seed: 1}); err == nil {
		t.Fatal("want error for unknown mapper")
	}
	if _, err := eng.RunSolve(context.Background(), nil, Solve{Mapper: UG}); err == nil {
		t.Fatal("want error for missing task graph")
	}
	if _, err := NewEngine(topo, &Allocation{Nodes: []int32{1, 1}, ProcsPerNode: []int{16, 16}}); err == nil {
		t.Fatal("want error for duplicate allocation nodes")
	}
}

// TestEngineRejectsTaskCountMismatch: a task graph whose K disagrees
// with its graph's vertex count fails every entry point with an error,
// instead of panicking (a block-grouping mapper indexing past K) or
// placing a different number of tasks than K (a partitioning mapper
// grouping every vertex).
func TestEngineRejectsTaskCountMismatch(t *testing.T) {
	ctx := context.Background()
	topo := NewHopperTorus(4, 4, 4)
	a, err := SparseAllocation(topo, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.RandomConnected(16, 32, 9, 1)
	prev, err := eng.RunSolve(ctx, &TaskGraph{G: g, K: 16}, Solve{Mapper: UWH, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	delta := AllocationDelta{Remove: []int32{a.Nodes[0]}}
	for _, k := range []int{12, 20} {
		bad := &TaskGraph{G: g, K: k}
		for _, m := range []Mapper{DEF, UWH} {
			if res, err := eng.RunSolve(ctx, bad, Solve{Mapper: m, Seed: 1}); err == nil {
				t.Fatalf("K=%d, %s: RunSolve returned %d groups and no error", k, m, len(res.GroupOf))
			}
			if _, err := eng.RunBatch(ctx, bad, []Solve{{Mapper: m, Seed: 1}}, 1); err == nil {
				t.Fatalf("K=%d, %s: RunBatch returned no error", k, m)
			}
		}
		req := PortfolioRequest{Tasks: bad, Candidates: []Solve{{Mapper: DEF}, {Mapper: UWH}, {Mapper: UG}}}
		if _, err := eng.RunPortfolio(ctx, req); err == nil {
			t.Fatalf("K=%d: RunPortfolio returned no error", k)
		}
		// The previous result places K tasks, so only the task graph
		// itself is inconsistent.
		prevK := *prev
		prevK.GroupOf = make([]int32, k)
		if _, err := eng.RunRemap(ctx, bad, &prevK, delta, RemapSpec{}); err == nil {
			t.Fatalf("K=%d: RunRemap returned no error", k)
		}
	}
}

// TestUniformCapsEmpty is the regression test for the uniformCaps
// panic on an empty ProcsPerNode slice (procs[1:] on length 0).
func TestUniformCapsEmpty(t *testing.T) {
	for _, tc := range []struct {
		procs []int
		want  bool
	}{
		{nil, true},
		{[]int{}, true},
		{[]int{16}, true},
		{[]int{16, 16, 16}, true},
		{[]int{16, 8}, false},
	} {
		if got := uniformCaps(tc.procs); got != tc.want {
			t.Fatalf("uniformCaps(%v) = %v, want %v", tc.procs, got, tc.want)
		}
	}
}

// TestEngineEvaluateMatchesEvaluateMetrics pins the cached-view
// metric evaluation to the raw-topology one.
func TestEngineEvaluateMatchesEvaluateMetrics(t *testing.T) {
	tg, topo, a := engineFixture(t, 128)
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunSolve(context.Background(), tg, Solve{Mapper: UMC, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := eng.Evaluate(tg, res.Placement()), EvaluateMetrics(tg, topo, res.Placement()); got != want {
		t.Fatalf("cached evaluation diverged:\n want %+v\n got  %+v", want, got)
	}
}

// ExampleEngine_RunBatch is compile-checked documentation of the
// batch path; it doubles as the smallest possible engine quickstart.
func ExampleEngine_RunBatch() {
	topo := NewHopperTorus(4, 4, 4)
	a, _ := alloc.Generate(topo, 4, alloc.Config{Mode: alloc.Contiguous, Seed: 3})
	coarse := FromEdges(4,
		[]int32{0, 1, 2, 3},
		[]int32{1, 2, 3, 0},
		[]int64{10, 10, 10, 10})
	tg := &TaskGraph{G: coarse, K: 4}
	eng, _ := NewEngine(topo, a)
	results, _ := eng.RunBatch(context.Background(), tg, []Solve{
		{Mapper: DEF, Seed: 1},
		{Mapper: UWH, Seed: 1},
	}, 0)
	fmt.Println("UWH no worse than DEF:", results[1].Metrics.WH <= results[0].Metrics.WH)
	// Output:
	// UWH no worse than DEF: true
}
