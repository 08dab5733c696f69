package topomap_test

// Godoc examples: compile-checked documentation of the three ways to
// drive the library — the full paper pipeline through the Engine
// service API, an objective-driven portfolio race, and the algorithms
// directly on a hand-built coarse task graph.

import (
	"context"
	"fmt"
	"log"

	topomap "repro"
)

// ExampleEngine_RunSolve runs the paper's full pipeline through the
// service API: generate a workload matrix, partition it into MPI
// ranks, build the task graph, construct an Engine for the (torus,
// allocation) pair — its routing state is precomputed once — and
// serve two Solve specs against it: the SMP-style default placement
// and UWH (greedy construction + WH refinement).
func ExampleEngine_RunSolve() {
	m, err := topomap.GenerateMatrix("mesh2d-a", topomap.Tiny)
	if err != nil {
		log.Fatal(err)
	}
	topo := topomap.NewHopperTorus(6, 6, 6)
	a, err := topomap.SparseAllocation(topo, 4, 1) // 4 nodes x 16 procs
	if err != nil {
		log.Fatal(err)
	}
	procs := a.TotalProcs()
	part, err := topomap.PartitionMatrix(topomap.PATOH, m, procs, 1)
	if err != nil {
		log.Fatal(err)
	}
	tg, err := topomap.BuildTaskGraph(m, part, procs)
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
	m, err := topomap.GenerateMatrix("mesh2d-a", topomap.Tiny)
	if err != nil {
		log.Fatal(err)
	}
	topo := topomap.NewHopperTorus(6, 6, 6)
	a, err := topomap.SparseAllocation(topo, 4, 1)
	if err != nil {
		log.Fatal(err)
	}
	procs := a.TotalProcs()
	part, err := topomap.PartitionMatrix(topomap.PATOH, m, procs, 1)
	if err != nil {
		log.Fatal(err)
	}
	tg, err := topomap.BuildTaskGraph(m, part, procs)
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

// ExampleGreedyMap drives the algorithms directly: a hand-built
// coarse task graph (a ring with two heavy pairs), mapped one-to-one
// onto four allocated nodes by Algorithm 1 and improved in place by
// Algorithm 2, which only ever accepts WH-lowering swaps.
func ExampleGreedyMap() {
	topo := topomap.NewHopperTorus(4, 4, 4)
	// Ring 0-1-2-3-0: edges 0-1 and 2-3 are heavy.
	coarse := topomap.FromEdges(4,
		[]int32{0, 1, 1, 2, 2, 3, 3, 0},
		[]int32{1, 0, 2, 1, 3, 2, 0, 3},
		[]int64{90, 90, 5, 5, 90, 90, 5, 5})
	nodes := []int32{0, 1, 21, 42} // a scattered allocation
	nodeOf := topomap.GreedyMap(coarse, topo, nodes)
	before := topomap.EvaluateMetrics(&topomap.TaskGraph{G: coarse, K: 4}, topo,
		&topomap.Placement{NodeOf: nodeOf}).WH
	topomap.RefineWH(coarse, topo, nodes, nodeOf)
	after := topomap.EvaluateMetrics(&topomap.TaskGraph{G: coarse, K: 4}, topo,
		&topomap.Placement{NodeOf: nodeOf}).WH
	fmt.Println("refinement never regresses:", after <= before)
	// Output:
	// refinement never regresses: true
}
