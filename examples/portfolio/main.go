// Portfolio: objective-driven mapper selection. Instead of asking for
// an algorithm, the caller declares an outcome — "minimize the
// maximum link congestion on this allocation" — and RunPortfolio
// races every compatible registered mapper toward it, returning the
// winner and a per-candidate leaderboard. The same declarative
// request runs on a torus and on a dragonfly; the point of the demo
// is that the winning mapper is allowed to differ between them, which
// is exactly why a portfolio beats hard-coding one algorithm.
package main

import (
	"context"
	"fmt"
	"log"

	topomap "repro"
	"repro/internal/gen"
	"repro/internal/partitioners"
	"repro/internal/taskgraph"
)

func main() {
	// Workload: a 1D row-wise SpMV task graph of the cagelike matrix,
	// 128 MPI processes on 8 busy-machine hosts × 16 processors.
	spec, err := gen.ByName(gen.Cagelike)
	if err != nil {
		log.Fatal(err)
	}
	m := spec.Generate(gen.Tiny)
	const procs = 128
	part, err := partitioners.Run(partitioners.PATOHP, m, procs, 1)
	if err != nil {
		log.Fatal(err)
	}
	tg, err := taskgraph.Build(m, part, procs)
	if err != nil {
		log.Fatal(err)
	}

	torus := topomap.NewHopperTorus(8, 8, 8)
	torusAlloc, err := topomap.SparseAllocation(torus, procs/16, 7)
	if err != nil {
		log.Fatal(err)
	}
	dfly, err := topomap.NewDragonfly(3, 10e9, 5e9, 4e9)
	if err != nil {
		log.Fatal(err)
	}
	dflyAlloc, err := topomap.DragonflySparseHosts(dfly, procs/16, 7)
	if err != nil {
		log.Fatal(err)
	}

	// One declarative request: minimize the maximum volume congestion.
	// Candidates are left empty, so each engine expands the portfolio
	// to every registered mapper its topology can dispatch.
	req := topomap.PortfolioRequest{
		Tasks:     tg,
		Seed:      1,
		Objective: topomap.MinimizeMetric("mc"),
	}

	for _, tc := range []struct {
		name  string
		topo  topomap.Topology
		alloc *topomap.Allocation
	}{
		{"torus 8x8x8", torus, torusAlloc},
		{"dragonfly h=3", dfly, dflyAlloc},
	} {
		eng, err := topomap.NewEngine(tc.topo, tc.alloc)
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.RunPortfolio(context.Background(), req)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s — objective %s, %d candidates\n", tc.name, req.Objective, len(res.Leaderboard))
		for rank, entry := range res.Leaderboard {
			fmt.Printf("  #%d %-5s score %.6g  (WH %d, MC %.4g)\n",
				rank+1, entry.Solve.Mapper, entry.Score,
				entry.Result.Metrics.WH, entry.Result.Metrics.MC)
		}
		fmt.Printf("  winner: %s\n\n", res.Best.Mapper)
	}
}
