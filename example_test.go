package topomap_test

// Godoc examples: compile-checked documentation of the two ways to
// drive the Engine — the full paper pipeline through the service API,
// and an objective-driven portfolio race. Their SpMV workload comes
// from the reproduction harness (internal/gen, internal/partitioners,
// internal/taskgraph), which the root API does not export.

import (
	"context"
	"fmt"
	"log"

	topomap "repro"
	"repro/internal/gen"
	"repro/internal/partitioners"
	"repro/internal/taskgraph"
)

// ExampleEngine_RunSolve runs the paper's full pipeline through the
// service API: generate a workload matrix, partition it into MPI
// ranks, build the task graph, construct an Engine for the (torus,
// allocation) pair — its routing state is precomputed once — and
// serve two Solve specs against it: the SMP-style default placement
// and UWH (greedy construction + WH refinement).
func ExampleEngine_RunSolve() {
	spec, err := gen.ByName("mesh2d-a")
	if err != nil {
		log.Fatal(err)
	}
	m := spec.Generate(gen.Tiny)
	topo := topomap.NewHopperTorus(6, 6, 6)
	a, err := topomap.SparseAllocation(topo, 4, 1) // 4 nodes x 16 procs
	if err != nil {
		log.Fatal(err)
	}
	procs := a.TotalProcs()
	part, err := partitioners.Run(partitioners.PATOHP, m, procs, 1)
	if err != nil {
		log.Fatal(err)
	}
	tg, err := taskgraph.Build(m, part, procs)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := topomap.NewEngine(topo, a)
	if err != nil {
		log.Fatal(err)
	}
	def, err := eng.RunSolve(context.Background(), tg, topomap.Solve{Mapper: topomap.DEF, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	uwh, err := eng.RunSolve(context.Background(), tg, topomap.Solve{Mapper: topomap.UWH, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("UWH weighted hops below DEF:", uwh.Metrics.WH <= def.Metrics.WH)
	// Output:
	// UWH weighted hops below DEF: true
}

// ExampleEngine_RunPortfolio declares an outcome instead of an
// algorithm: race three candidate mappers toward "minimize the
// maximum link congestion" and let the engine pick the winner. The
// candidates fan out over one bounded pool, selection is
// deterministic at any worker count, and the leaderboard reports
// every candidate's score.
func ExampleEngine_RunPortfolio() {
	spec, err := gen.ByName("mesh2d-a")
	if err != nil {
		log.Fatal(err)
	}
	m := spec.Generate(gen.Tiny)
	topo := topomap.NewHopperTorus(6, 6, 6)
	a, err := topomap.SparseAllocation(topo, 4, 1)
	if err != nil {
		log.Fatal(err)
	}
	procs := a.TotalProcs()
	part, err := partitioners.Run(partitioners.PATOHP, m, procs, 1)
	if err != nil {
		log.Fatal(err)
	}
	tg, err := taskgraph.Build(m, part, procs)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := topomap.NewEngine(topo, a)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.RunPortfolio(context.Background(), topomap.PortfolioRequest{
		Tasks:     tg,
		Objective: topomap.MinimizeMetric("mc"),
		Candidates: []topomap.Solve{
			{Mapper: topomap.UWH, Seed: 1},
			{Mapper: topomap.UMC, Seed: 1},
			{Mapper: topomap.SMAP, Seed: 1},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	best := res.Leaderboard[0]
	fmt.Println("candidates raced:", len(res.Leaderboard))
	fmt.Println("winner heads the leaderboard:", res.Winner == best.Index)
	fmt.Println("winner has the lowest congestion score:",
		best.Score <= res.Leaderboard[1].Score && best.Score <= res.Leaderboard[2].Score)
	// Output:
	// candidates raced: 3
	// winner heads the leaderboard: true
	// winner has the lowest congestion score: true
}
