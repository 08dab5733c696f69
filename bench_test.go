package topomap_test

// The benchmark harness: one benchmark per table/figure of the paper
// (regenerating it at Tiny scale through the exp package), plus
// per-algorithm microbenchmarks and the ablation benches DESIGN.md
// calls out. Run everything with
//
//	go test -bench=. -benchmem
//
// and regenerate the full-size outputs with cmd/experiments.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/alloc"
	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/dragonfly"
	"repro/internal/exp"
	"repro/internal/fattree"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/hetero"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/parallel"
	"repro/internal/partitioners"
	"repro/internal/routecache"
	"repro/internal/taskgraph"
	"repro/internal/torus"

	topomap "repro"
)

// --- one bench per figure/table -------------------------------------

func benchFigure(b *testing.B, run func(*exp.Suite) (string, error)) {
	b.Helper()
	cfg := exp.TinyConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(exp.NewSuite(cfg)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1 regenerates Figure 1 (partition metrics TV/TM/MSV/
// MSM across the seven partitioners).
func BenchmarkFigure1(b *testing.B) { benchFigure(b, (*exp.Suite).Figure1) }

// BenchmarkFigure2 regenerates Figure 2 (mapping metrics normalized
// to DEF).
func BenchmarkFigure2(b *testing.B) { benchFigure(b, (*exp.Suite).Figure2) }

// BenchmarkFigure3 regenerates Figure 3 (mapping algorithm times).
func BenchmarkFigure3(b *testing.B) { benchFigure(b, (*exp.Suite).Figure3) }

// BenchmarkFigure4a regenerates Figure 4a (comm-only, cagelike).
func BenchmarkFigure4a(b *testing.B) {
	benchFigure(b, func(s *exp.Suite) (string, error) { return s.Figure4("a") })
}

// BenchmarkFigure4b regenerates Figure 4b (comm-only, rgg).
func BenchmarkFigure4b(b *testing.B) {
	benchFigure(b, func(s *exp.Suite) (string, error) { return s.Figure4("b") })
}

// BenchmarkFigure5 regenerates Figure 5 (SpMV, cagelike).
func BenchmarkFigure5(b *testing.B) { benchFigure(b, (*exp.Suite).Figure5) }

// BenchmarkTable1 regenerates Table I (summary improvements).
func BenchmarkTable1(b *testing.B) { benchFigure(b, (*exp.Suite).Table1) }

// BenchmarkRegression regenerates the §IV-E NNLS regression analysis.
func BenchmarkRegression(b *testing.B) { benchFigure(b, (*exp.Suite).Regression) }

// --- per-algorithm microbenchmarks ----------------------------------

// benchFixture builds a coarse task graph (n supertasks), a
// Hopper-like torus and the route table of a sparse allocation of n
// of its nodes, which the mapping stages read.
func benchFixture(b *testing.B, n int) (*graph.Graph, *torus.Torus, *routecache.Table) {
	b.Helper()
	topo := torus.NewHopper3D(16, 12, 16)
	a, err := alloc.Generate(topo, n, alloc.Config{Mode: alloc.Sparse, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	g := graph.RandomConnected(n, 4*n, 100, 2)
	return g, topo, benchTable(b, topo, a.Nodes)
}

// benchTable builds the route table of nodes over topo.
func benchTable(b *testing.B, topo torus.Topology, nodes []int32) *routecache.Table {
	b.Helper()
	tab, err := routecache.New(topo, nodes)
	if err != nil {
		b.Fatal(err)
	}
	return tab
}

// BenchmarkMapperUG measures Algorithm 1 (both NBFS settings) on a
// 256-supertask graph.
func BenchmarkMapperUG(b *testing.B) {
	g, _, tab := benchFixture(b, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.MapUG(g, tab, nil)
	}
}

// BenchmarkMapperUWH measures greedy + Algorithm 2.
func BenchmarkMapperUWH(b *testing.B) {
	g, _, tab := benchFixture(b, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.MapUWH(g, tab, nil)
	}
}

// BenchmarkMapperUMC measures greedy + Algorithm 3 (volume).
func BenchmarkMapperUMC(b *testing.B) {
	g, _, tab := benchFixture(b, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.MapUMC(g, tab, nil)
	}
}

// BenchmarkMapperUMMC measures greedy + Algorithm 3 (messages); the
// benchmark graph's edges are single messages, so the graph doubles
// as its own message view.
func BenchmarkMapperUMMC(b *testing.B) {
	g, _, tab := benchFixture(b, 256)
	msgG := g.Clone()
	msgG.EW = make([]int64, g.M())
	for i := range msgG.EW {
		msgG.EW[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.MapUMMC(g, msgG, tab, nil)
	}
}

// BenchmarkPartitionerGraph measures the multilevel graph partitioner
// (KaFFPa personality) on the tiny cagelike matrix.
func BenchmarkPartitionerGraph(b *testing.B) {
	spec, err := gen.ByName(gen.Cagelike)
	if err != nil {
		b.Fatal(err)
	}
	m := spec.Generate(gen.Tiny)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partitioners.Run(partitioners.KAFFPAP, m, 64, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionerHypergraph measures the multilevel hypergraph
// partitioner (PaToH personality) on the tiny cagelike matrix.
func BenchmarkPartitionerHypergraph(b *testing.B) {
	spec, err := gen.ByName(gen.Cagelike)
	if err != nil {
		b.Fatal(err)
	}
	m := spec.Generate(gen.Tiny)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partitioners.Run(partitioners.PATOHP, m, 64, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTaskGraphBuild measures MPI task graph construction.
func BenchmarkTaskGraphBuild(b *testing.B) {
	spec, err := gen.ByName(gen.Cagelike)
	if err != nil {
		b.Fatal(err)
	}
	m := spec.Generate(gen.Tiny)
	part, err := partitioners.Run(partitioners.PATOHP, m, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := taskgraph.Build(m, part, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetricsCompute measures the full mapping-metric evaluation
// with static-route enumeration.
func BenchmarkMetricsCompute(b *testing.B) {
	g, topo, tab := benchFixture(b, 256)
	nodeOf := core.MapUG(g, tab, nil)
	pl := &metrics.Placement{NodeOf: nodeOf}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.Compute(g, topo, pl)
	}
}

// BenchmarkSimulatorCommOnly measures the contention-aware
// communication simulator.
func BenchmarkSimulatorCommOnly(b *testing.B) {
	g, topo, tab := benchFixture(b, 256)
	nodeOf := core.MapUG(g, tab, nil)
	pl := &metrics.Placement{NodeOf: nodeOf}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		netsim.CommOnly(g, topo, pl, 4096, netsim.Params{Seed: int64(i)})
	}
}

// --- ablations (DESIGN.md §7) ---------------------------------------

// BenchmarkAblationDelta sweeps the ∆ swap-candidate bound of
// Algorithm 2 (the paper fixes ∆=8) and reports the resulting WH as
// a custom metric.
func BenchmarkAblationDelta(b *testing.B) {
	for _, delta := range []int{2, 8, 32} {
		b.Run(map[int]string{2: "delta2", 8: "delta8", 32: "delta32"}[delta], func(b *testing.B) {
			g, topo, tab := benchFixture(b, 256)
			base := core.MapUG(g, tab, nil)
			var lastWH int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nodeOf := append([]int32(nil), base...)
				core.RefineWH(g, tab, nodeOf, core.RefineOptions{Delta: delta})
				lastWH = metrics.WeightedHops(g, topo, nodeOf)
			}
			b.ReportMetric(float64(lastWH), "WH")
		})
	}
}

// BenchmarkAblationNBFS compares the two greedy seeding modes the
// paper blends (NBFS = 0 vs 1).
func BenchmarkAblationNBFS(b *testing.B) {
	for _, nbfs := range []int{0, 1} {
		name := map[int]string{0: "nbfs0", 1: "nbfs1"}[nbfs]
		b.Run(name, func(b *testing.B) {
			g, topo, tab := benchFixture(b, 256)
			var lastWH int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nodeOf := core.Greedy(g, tab, core.GreedyOptions{NBFS: nbfs})
				lastWH = metrics.WeightedHops(g, topo, nodeOf)
			}
			b.ReportMetric(float64(lastWH), "WH")
		})
	}
}

// BenchmarkAblationEarlyExit compares GETBESTNODE's early-exit BFS
// against exhaustively scoring every empty allocated node; the paper
// credits the early exit for Algorithm 1's speed.
func BenchmarkAblationEarlyExit(b *testing.B) {
	for _, mode := range []string{"earlyExit", "exhaustive"} {
		b.Run(mode, func(b *testing.B) {
			g, topo, tab := benchFixture(b, 256)
			var lastWH int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nodeOf := core.Greedy(g, tab, core.GreedyOptions{
					NoEarlyExit: mode == "exhaustive",
				})
				lastWH = metrics.WeightedHops(g, topo, nodeOf)
			}
			b.ReportMetric(float64(lastWH), "WH")
		})
	}
}

// BenchmarkAblationFineRefinement measures the §III-B fine-level WH
// refinement the paper leaves off by default, reporting the extra WH
// it recovers on top of UWH.
func BenchmarkAblationFineRefinement(b *testing.B) {
	spec, err := gen.ByName(gen.Cagelike)
	if err != nil {
		b.Fatal(err)
	}
	m := spec.Generate(gen.Tiny)
	part, err := partitioners.Run(partitioners.PATOHP, m, 256, 1)
	if err != nil {
		b.Fatal(err)
	}
	tg, err := taskgraph.Build(m, part, 256)
	if err != nil {
		b.Fatal(err)
	}
	topo := torus.NewHopper3D(8, 8, 8)
	a, err := alloc.Generate(topo, 16, alloc.Config{Mode: alloc.Sparse, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := topomap.NewEngine(topo, a)
	if err != nil {
		b.Fatal(err)
	}
	tab := benchTable(b, topo, a.Nodes)
	var whGain int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.RunSolve(context.Background(), tg, topomap.Solve{Mapper: topomap.UWH, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		whGain, _ = core.RefineWHFine(tg.G.Symmetrize(nil), tab, res.GroupOf, res.NodeOf, core.RefineOptions{})
	}
	b.ReportMetric(float64(whGain), "extraWH")
}

// BenchmarkAblationMultilevel compares the greedy construction (UG),
// greedy + Algorithm 2 (UWH), and the §III-B multilevel scheme (UML)
// on the same instance, reporting the final WH each achieves.
func BenchmarkAblationMultilevel(b *testing.B) {
	run := func(name string, mapFn func(*graph.Graph, *routecache.Table, *core.Exec) []int32) {
		b.Run(name, func(b *testing.B) {
			g, topo, tab := benchFixture(b, 256)
			var lastWH int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nodeOf := mapFn(g, tab, nil)
				lastWH = metrics.WeightedHops(g, topo, nodeOf)
			}
			b.ReportMetric(float64(lastWH), "WH")
		})
	}
	run("UG", core.MapUG)
	run("UWH", core.MapUWH)
	run("UML", core.MapUML)
}

// BenchmarkFatTreeMapping measures the WH pipeline on a k=16 fat
// tree (1024 hosts, 512 mapped supertasks) — the topology-agnostic
// claim of §III at scale.
func BenchmarkFatTreeMapping(b *testing.B) {
	ft, err := fattree.New(16, 10e9, 2)
	if err != nil {
		b.Fatal(err)
	}
	a, err := fattree.SparseHosts(ft, 512, 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	g := graph.RandomConnected(512, 2048, 100, 2)
	tab := benchTable(b, ft, a.Nodes)
	var lastWH int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodeOf := core.MapUWH(g, tab, nil)
		lastWH = metrics.WeightedHops(g, ft, nodeOf)
	}
	b.ReportMetric(float64(lastWH), "WH")
}

// BenchmarkSolveMachineSize holds the job fixed and grows the
// machine: one 512-task 8³ stencil on 32 sparse hosts of fat trees with
// k = 16, 32 and 64 (1,024 to 65,536 hosts), solved by UWH and UMC on
// a warm engine with one worker. Time or bytes per solve that grow
// with k are cost sized by the machine rather than the job.
func BenchmarkSolveMachineSize(b *testing.B) {
	tg, err := taskgraph.Stencil(8, 8, 8, 8)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{16, 32, 64} {
		ft, err := fattree.New(k, 10e9, 2)
		if err != nil {
			b.Fatal(err)
		}
		a, err := fattree.SparseHosts(ft, 32, 16, 1)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := topomap.NewEngine(ft, a)
		if err != nil {
			b.Fatal(err)
		}
		for _, mp := range []topomap.Mapper{topomap.UWH, topomap.UMC} {
			b.Run(fmt.Sprintf("k%d/%s", k, mp), func(b *testing.B) {
				s := topomap.Solve{Mapper: mp, Seed: 1, Workers: 1}
				if _, err := eng.RunSolve(context.Background(), tg, s); err != nil {
					b.Fatal(err) // warm-up: the engine's arena fills here
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.RunSolve(context.Background(), tg, s); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDragonflyMapping measures the WH pipeline on a canonical
// h=3 dragonfly (19 groups x 6 routers x 3 hosts = 342 hosts, 128
// mapped supertasks).
func BenchmarkDragonflyMapping(b *testing.B) {
	d, err := dragonfly.New(3, 10e9, 5e9, 4e9)
	if err != nil {
		b.Fatal(err)
	}
	a, err := dragonfly.SparseHosts(d, 128, 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	g := graph.RandomConnected(128, 512, 100, 2)
	tab := benchTable(b, d, a.Nodes)
	var lastWH int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodeOf := core.MapUWH(g, tab, nil)
		lastWH = metrics.WeightedHops(g, d, nodeOf)
	}
	b.ReportMetric(float64(lastWH), "WH")
}

// BenchmarkAblationAdaptiveRouting compares refining for static
// congestion (UMC) against refining for the expected congestion of an
// adaptively routed torus (UMCA, §III-C's dynamic-routing remark),
// scoring both under the adaptive metric EMC ×1e6.
func BenchmarkAblationAdaptiveRouting(b *testing.B) {
	run := func(name string, mapFn func(*graph.Graph, *routecache.Table) []int32) {
		b.Run(name, func(b *testing.B) {
			g, topo, tab := benchFixture(b, 256)
			var lastEMC float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nodeOf := mapFn(g, tab)
				pl := &metrics.Placement{NodeOf: nodeOf}
				lastEMC = metrics.ComputeAdaptive(g, topo, pl).EMC
			}
			b.ReportMetric(lastEMC*1e6, "EMC_us")
		})
	}
	run("UMC_static", func(g *graph.Graph, tab *routecache.Table) []int32 {
		return core.MapUMC(g, tab, nil)
	})
	run("UMCA_adaptive", func(g *graph.Graph, tab *routecache.Table) []int32 {
		return core.MapUMCA(g, tab, nil)
	})
}

// BenchmarkAblationAdaptiveSim closes the §III-C loop in execution
// time: on an adaptively routed torus, a mapping refined against the
// static congestion model (UMC) races one refined against the
// expected congestion (UMCA); both are scored by the multipath
// communication-only simulator (microseconds reported).
func BenchmarkAblationAdaptiveSim(b *testing.B) {
	run := func(name string, mapFn func(*graph.Graph, *routecache.Table) []int32) {
		b.Run(name, func(b *testing.B) {
			g, topo, tab := benchFixture(b, 256)
			var lastT float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nodeOf := mapFn(g, tab)
				pl := &metrics.Placement{NodeOf: nodeOf}
				lastT = netsim.CommOnlyAdaptive(g, topo, pl, 4096,
					netsim.Params{Seed: 1, NoiseSigma: 1e-9}).Seconds
			}
			b.ReportMetric(lastT*1e6, "simTime_us")
		})
	}
	run("UMC_static_model", func(g *graph.Graph, tab *routecache.Table) []int32 {
		return core.MapUMC(g, tab, nil)
	})
	run("UMCA_adaptive_model", func(g *graph.Graph, tab *routecache.Table) []int32 {
		return core.MapUMCA(g, tab, nil)
	})
}

// --- engine (service API) benchmarks --------------------------------

// engineBenchFixture builds the full-pipeline fixture of the engine
// benchmarks: a 256-task PATOH task graph and matching sparse
// allocations on a Hopper-like torus and a canonical dragonfly.
func engineBenchFixture(b *testing.B) (*topomap.TaskGraph, *torus.Torus, *alloc.Allocation, *dragonfly.Dragonfly, *alloc.Allocation) {
	b.Helper()
	spec, err := gen.ByName(gen.Cagelike)
	if err != nil {
		b.Fatal(err)
	}
	m := spec.Generate(gen.Tiny)
	part, err := partitioners.Run(partitioners.PATOHP, m, 256, 1)
	if err != nil {
		b.Fatal(err)
	}
	tg, err := taskgraph.Build(m, part, 256)
	if err != nil {
		b.Fatal(err)
	}
	topo := torus.NewHopper3D(8, 8, 8)
	a, err := alloc.Generate(topo, 16, alloc.Config{Mode: alloc.Sparse, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	d, err := dragonfly.New(3, 10e9, 5e9, 4e9)
	if err != nil {
		b.Fatal(err)
	}
	da, err := dragonfly.SparseHosts(d, 16, 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	return tg, topo, a, d, da
}

// BenchmarkSolveTraced measures the cost of stage tracing against the
// identical untraced solve: the delta is the tracing overhead the
// "zero overhead disabled, negligible enabled" contract promises
// (mapd traces every solve it serves).
func BenchmarkSolveTraced(b *testing.B) {
	tg, topo, a, _, _ := engineBenchFixture(b)
	eng, err := topomap.NewEngine(topo, a)
	if err != nil {
		b.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		name := "untraced"
		if traced {
			name = "traced"
		}
		b.Run(name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sol := topomap.Solve{Mapper: topomap.UMC, Seed: 1, Trace: traced}
				if _, err := eng.RunSolve(context.Background(), tg, sol); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineReuse measures the steady state of the service API:
// one Engine per (topology, allocation), its routing/distance state
// precomputed once, serving repeated UWH requests. Compare with
// BenchmarkEngineColdStart for the cached-routing-state win.
func BenchmarkEngineReuse(b *testing.B) {
	tg, topo, a, d, da := engineBenchFixture(b)
	run := func(name string, t topomap.Topology, al *alloc.Allocation) {
		b.Run(name, func(b *testing.B) {
			eng, err := topomap.NewEngine(t, al)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.RunSolve(context.Background(), tg, topomap.Solve{Mapper: topomap.UMC, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("torus", topo, a)
	run("dragonfly", d, da)
}

// BenchmarkEngineColdStart is the baseline BenchmarkEngineReuse beats:
// every request builds a fresh engine, recomputing the routing state
// from scratch before it solves.
func BenchmarkEngineColdStart(b *testing.B) {
	tg, topo, a, d, da := engineBenchFixture(b)
	run := func(name string, t topomap.Topology, al *alloc.Allocation) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng, err := topomap.NewEngine(t, al)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.RunSolve(context.Background(), tg, topomap.Solve{Mapper: topomap.UMC, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("torus", topo, a)
	run("dragonfly", d, da)
}

// BenchmarkEngineCacheHit measures the mapd steady state: every
// request fingerprints its (topology, allocation) pair, hits the
// engine cache, and solves against the resident routing state. The
// delta against BenchmarkEngineColdStart is the per-request win of
// the allocation-keyed cache (route-state rebuild plus topology
// construction skipped).
func BenchmarkEngineCacheHit(b *testing.B) {
	tg, topo, a, d, da := engineBenchFixture(b)
	run := func(name string, t topomap.Topology, al *alloc.Allocation) {
		b.Run(name, func(b *testing.B) {
			cache := topomap.NewEngineCache(8)
			if _, _, err := cache.Get(t, al); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng, hit, err := cache.Get(t, al)
				if err != nil {
					b.Fatal(err)
				}
				if !hit {
					b.Fatal("warm key missed the cache")
				}
				if _, err := eng.RunSolve(context.Background(), tg, topomap.Solve{Mapper: topomap.UMC, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("torus", topo, a)
	run("dragonfly", d, da)
}

// BenchmarkEngineRunBatch measures the worker-pool fan-out: the seven
// Figure-2 mappers as one batch against a shared engine.
func BenchmarkEngineRunBatch(b *testing.B) {
	tg, topo, a, _, _ := engineBenchFixture(b)
	eng, err := topomap.NewEngine(topo, a)
	if err != nil {
		b.Fatal(err)
	}
	var solves []topomap.Solve
	for _, mp := range topomap.Mappers() {
		solves = append(solves, topomap.Solve{Mapper: mp, Seed: 1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunBatch(context.Background(), tg, solves, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnginePortfolio measures the objective-driven racing path:
// a six-candidate portfolio selecting by MC against the winning
// mapper run alone — the price of discovering the winner at request
// time instead of hard-coding it. In portfolio6 the five partitioning
// candidates share seed 1, so the race groups and coarsens once for
// them; portfolio6-distinctSeeds gives every candidate its own seed,
// so nothing is shared and each candidate partitions for itself. The
// ratio of the two is the shared prefix's saving.
func BenchmarkEnginePortfolio(b *testing.B) {
	tg, topo, a, _, _ := engineBenchFixture(b)
	eng, err := topomap.NewEngine(topo, a)
	if err != nil {
		b.Fatal(err)
	}
	mappers := []topomap.Mapper{topomap.DEF, topomap.TMAP, topomap.SMAP, topomap.UG, topomap.UWH, topomap.UMC}
	cands := make([]topomap.Solve, 0, len(mappers))
	distinct := make([]topomap.Solve, 0, len(mappers))
	for i, mp := range mappers {
		cands = append(cands, topomap.Solve{Mapper: mp, Seed: 1})
		distinct = append(distinct, topomap.Solve{Mapper: mp, Seed: int64(i + 1)})
	}
	req := topomap.PortfolioRequest{Tasks: tg, Candidates: cands,
		Objective: topomap.MinimizeMetric("mc"), Workers: 8}
	warm, err := eng.RunPortfolio(context.Background(), req)
	if err != nil {
		b.Fatal(err)
	}
	winner := cands[warm.Winner]
	race := func(name string, req topomap.PortfolioRequest) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.RunPortfolio(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	race("portfolio6", req)
	unshared := req
	unshared.Candidates = distinct
	race("portfolio6-distinctSeeds", unshared)
	b.Run("bestSingle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.RunSolve(context.Background(), tg, winner); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRefineMC measures Algorithm 3 alone — the congestion
// refinement that dominates large UMC/UMMC solves — at 1 and 8
// workers on a 512-supertask torus instance above the scoring work
// gate. The refined mapping is byte-identical across worker counts
// (TestRefineMCParallelDeterminism); only the wall-clock may differ,
// and on a single-CPU host the two are expected to tie.
func BenchmarkRefineMC(b *testing.B) {
	topo := torus.NewHopper3D(16, 12, 16)
	a, err := alloc.Generate(topo, 512, alloc.Config{Mode: alloc.Sparse, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	g := graph.RandomConnected(512, 2048, 100, 17)
	tab := benchTable(b, topo, a.Nodes)
	base := core.MapUG(g, tab, nil)
	ar := arena.New()
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("torus/w%d", workers), func(b *testing.B) {
			grp := parallel.NewGroup(context.Background(), workers)
			nodeOf := make([]int32, len(base))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(nodeOf, base)
				core.RefineCongestion(g, tab, nodeOf, core.VolumeCongestion,
					core.RefineOptions{Exec: &core.Exec{Par: grp, Arena: ar}})
			}
		})
	}
}

// BenchmarkAblationGrouping compares SMP-style block grouping against
// the partition-based grouping of §III-A.
func BenchmarkAblationGrouping(b *testing.B) {
	spec, err := gen.ByName(gen.Cagelike)
	if err != nil {
		b.Fatal(err)
	}
	m := spec.Generate(gen.Tiny)
	part, err := partitioners.Run(partitioners.PATOHP, m, 256, 1)
	if err != nil {
		b.Fatal(err)
	}
	tg, err := taskgraph.Build(m, part, 256)
	if err != nil {
		b.Fatal(err)
	}
	caps := make([]int64, 16)
	for i := range caps {
		caps[i] = 16
	}
	b.Run("blocks", func(b *testing.B) {
		var vol int64
		for i := 0; i < b.N; i++ {
			group, err := taskgraph.GroupBlocks(256, caps)
			if err != nil {
				b.Fatal(err)
			}
			vol = graph.Contract(tg.G.Symmetrize(nil), group, 16, nil).TotalEdgeWeight() / 2
		}
		b.ReportMetric(float64(vol), "interVol")
	})
	b.Run("partitioned", func(b *testing.B) {
		var vol int64
		for i := 0; i < b.N; i++ {
			sym := tg.G.Symmetrize(nil)
			group, err := taskgraph.GroupTasks(sym, caps, 1, nil, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			vol = graph.Contract(sym, group, 16, nil).TotalEdgeWeight() / 2
		}
		b.ReportMetric(float64(vol), "interVol")
	})
}

// BenchmarkRemapVsCold measures the incremental-remap win (PR 6): a
// single node death on a 4096-task instance, handled warm — route
// cache patched in place, only the stranded tasks migrated, WH
// refinement warm-started — against the cold path a naive client pays
// (rebuild the post-delta engine, re-solve from scratch). The fence
// is disabled so the remap side times the pure warm pipeline; the
// pairReuse% metric reports the fraction of per-pair route state the
// patch reused verbatim (single-node removal keeps every surviving
// pair, so it reads 100).
func BenchmarkRemapVsCold(b *testing.B) {
	tg := parallelBenchInstance(b, 4096)
	type instance struct {
		name string
		topo topomap.Topology
		a    *alloc.Allocation
	}
	var instances []instance

	// 257 allocated nodes x 16 procs leave one node of slack, so a
	// node death keeps the 4096 tasks feasible.
	topo := torus.NewHopper3D(16, 12, 16)
	ta, err := alloc.Generate(topo, 257, alloc.Config{Mode: alloc.Sparse, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	instances = append(instances, instance{"torus", topo, ta})

	df, err := dragonfly.New(4, 10e9, 5e9, 4e9)
	if err != nil {
		b.Fatal(err)
	}
	da, err := dragonfly.SparseHosts(df, 257, 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	instances = append(instances, instance{"dragonfly", df, da})

	for _, inst := range instances {
		eng, err := topomap.NewEngine(inst.topo, inst.a)
		if err != nil {
			b.Fatal(err)
		}
		prev, err := eng.RunSolve(context.Background(), tg, topomap.Solve{Mapper: topomap.UWH, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		delta := topomap.AllocationDelta{Remove: []int32{inst.a.Nodes[len(inst.a.Nodes)/2]}}
		b.Run(inst.name+"/remap", func(b *testing.B) {
			var reuse float64
			for i := 0; i < b.N; i++ {
				rres, err := eng.RunRemap(context.Background(), tg, prev, delta,
					topomap.RemapSpec{FenceThreshold: -1})
				if err != nil {
					b.Fatal(err)
				}
				reuse = float64(rres.PairsReused) / float64(rres.PairsTotal) * 100
			}
			b.ReportMetric(reuse, "pairReuse%")
		})
		next, err := delta.Apply(inst.topo, inst.a)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(inst.name+"/cold", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ne, err := topomap.NewEngine(inst.topo, next)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ne.RunSolve(context.Background(), tg, topomap.Solve{Mapper: topomap.UWH, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHeteroSolve measures the heterogeneous pipeline on a
// 4096-task inference-pipeline graph (64 stages x 64 branches, skewed
// per-task loads) over a sparse torus allocation where every third
// node is a 4x accelerator. The hetero-aware side runs HET with the
// makespan load-repair stage, loads and speeds visible; the blind side
// runs UWH with both stripped — the pre-heterogeneity engine — and is
// then scored under the true loads and speeds. Both report the
// makespan they actually achieve, so the JSON record tracks the win,
// not just the wall-clock.
func BenchmarkHeteroSolve(b *testing.B) {
	tg, err := taskgraph.MLPipe(64, 64, 3)
	if err != nil {
		b.Fatal(err)
	}
	topo := torus.NewHopper3D(16, 12, 16)
	a, err := alloc.Generate(topo, 256, alloc.Config{Mode: alloc.Sparse, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	a.Speeds = make([]float64, len(a.Nodes))
	for i := range a.Speeds {
		a.Speeds[i] = 1
		if i%3 == 0 {
			a.Speeds[i] = 4
		}
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

	b.Run("heteroAware", func(b *testing.B) {
		eng, err := topomap.NewEngine(topo, a)
		if err != nil {
			b.Fatal(err)
		}
		var makespan float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := eng.RunSolve(context.Background(), tg, topomap.Solve{Mapper: topomap.HET, Seed: 1, Balance: true})
			if err != nil {
				b.Fatal(err)
			}
			makespan = res.Metrics.Makespan
		}
		b.ReportMetric(makespan, "makespan")
	})
	b.Run("heteroBlind", func(b *testing.B) {
		blindG := *tg.G
		blindG.VW = nil
		blindTG := &topomap.TaskGraph{G: &blindG, K: tg.K}
		aBlind := *a
		aBlind.Speeds = nil
		eng, err := topomap.NewEngine(topo, &aBlind)
		if err != nil {
			b.Fatal(err)
		}
		var makespan float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := eng.RunSolve(context.Background(), blindTG, topomap.Solve{Mapper: topomap.UWH, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			makespan, _ = hetero.Summary(tg.G, res.GroupOf, groupSpeeds(res.NodeOf))
		}
		b.ReportMetric(makespan, "makespan")
	})
}

// BenchmarkGeomSolve measures the geometric pipeline against the
// paper's mapper on the geometric pair's native workload: a 16^3
// halo-exchange stencil (4096 tasks, coordinates = grid positions)
// over 256 sparse nodes of an 8x8x8 Hopper torus. GEOM runs the
// multi-jagged bisection + Hilbert node order, SFCM the pure
// SFC-to-SFC placement, UML the library's multi-level construction —
// geometry is cheap sorting, so GEOM's construction must come in well
// under UML's while each records the hop-byte quality it buys.
func BenchmarkGeomSolve(b *testing.B) {
	tg, err := taskgraph.Stencil(16, 16, 16, 8)
	if err != nil {
		b.Fatal(err)
	}
	topo := torus.NewHopper3D(8, 8, 8)
	a, err := alloc.Generate(topo, 256, alloc.Config{Mode: alloc.Sparse, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, mp := range []topomap.Mapper{topomap.GEOM, topomap.SFCM, topomap.UML, topomap.DEF} {
		b.Run("solve/"+string(mp), func(b *testing.B) {
			eng, err := topomap.NewEngine(topo, a)
			if err != nil {
				b.Fatal(err)
			}
			var wh int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.RunSolve(context.Background(), tg, topomap.Solve{Mapper: mp, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				wh = res.Metrics.WH
			}
			b.ReportMetric(float64(wh), "hop-bytes")
		})
	}

	// Construction-stage sub-benches: the end-to-end solves above share
	// the coarsening cost, so the mapper-stage difference — where
	// geometry's cheap sorting replaces UML's recursive multi-level
	// construction — is measured on the precomputed coarse inputs.
	eng, err := topomap.NewEngine(topo, a)
	if err != nil {
		b.Fatal(err)
	}
	warm, err := eng.RunSolve(context.Background(), tg, topomap.Solve{Mapper: topomap.GEOM, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	coarse, group := warm.Coarse, warm.GroupOf
	dim := tg.Dim
	cent := make([]float64, coarse.N()*dim)
	wsum := make([]float64, coarse.N())
	for v := 0; v < tg.K; v++ {
		g := int(group[v])
		w := float64(tg.G.VertexWeight(v))
		wsum[g] += w
		for d := 0; d < dim; d++ {
			cent[g*dim+d] += w * tg.Coords[v*dim+d]
		}
	}
	for g := range wsum {
		for d := 0; d < dim; d++ {
			cent[g*dim+d] /= wsum[g]
		}
	}
	b.Run("construct/GEOM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := geom.MapGEOM(cent, dim, coarse.VW, topo, a.Nodes, geom.Options{Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("construct/SFCM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := geom.MapSFCM(cent, dim, topo, a.Nodes); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("construct/UML", func(b *testing.B) {
		tab := benchTable(b, topo, a.Nodes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.MapUML(coarse, tab, nil)
		}
	})
}

// --- parallel solve benchmarks (PR 3) --------------------------------

// parallelBenchInstance builds one large solve instance: a random
// connected task graph of `tasks` vertices grouped onto `nodes`
// allocated nodes of the given topology — big enough that the
// grouping partitioner's bisection tree dominates, which is the part
// the worker pool parallelizes.
func parallelBenchInstance(b *testing.B, tasks int) *topomap.TaskGraph {
	b.Helper()
	g := graph.RandomConnected(tasks, 6*tasks, 100, 11)
	return &topomap.TaskGraph{G: g, K: tasks}
}

// BenchmarkEngineParallelSolve measures one large UWH solve per
// topology family at 1 and 8 workers. UWH's cost concentrates in the
// grouping partitioner's bisection tree — the stage the worker pool
// parallelizes — so this is the benchmark the ≥1.5x@8-workers
// acceptance target is stated over (on a host with ≥8 CPUs; on a
// single-CPU host the two are expected to tie). The placements are
// byte-identical across the worker counts (see
// TestEngineParallelDeterminism); only the wall-clock may differ.
func BenchmarkEngineParallelSolve(b *testing.B) {
	tg := parallelBenchInstance(b, 4096)
	type instance struct {
		name string
		topo topomap.Topology
		a    *alloc.Allocation
	}
	var instances []instance

	topo := torus.NewHopper3D(16, 12, 16)
	ta, err := alloc.Generate(topo, 256, alloc.Config{Mode: alloc.Sparse, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	instances = append(instances, instance{"torus", topo, ta})

	ft, err := fattree.New(16, 10e9, 2)
	if err != nil {
		b.Fatal(err)
	}
	fa, err := fattree.SparseHosts(ft, 256, 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	instances = append(instances, instance{"fattree", ft, fa})

	df, err := dragonfly.New(4, 10e9, 5e9, 4e9)
	if err != nil {
		b.Fatal(err)
	}
	da, err := dragonfly.SparseHosts(df, 256, 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	instances = append(instances, instance{"dragonfly", df, da})

	for _, inst := range instances {
		eng, err := topomap.NewEngine(inst.topo, inst.a)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/w%d", inst.name, workers), func(b *testing.B) {
				s := topomap.Solve{Mapper: topomap.UWH, Seed: 1, Workers: workers}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.RunSolve(context.Background(), tg, s); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
