// Engine: the topology-generic service API end-to-end. One task
// graph, three networks — a Hopper-like torus, a k-ary fat tree and a
// canonical dragonfly — each served by an Engine that precomputes the
// routing state of its allocation once and then answers mapping
// jobs against it. The exact same Solve specs run on all three
// (§III: the WH algorithms "can be applied to various topologies"),
// and RunBatch fans the whole Figure-2 mapper sweep out over a worker
// pool with deterministic results.
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
	// 64 MPI processes.
	spec, err := gen.ByName(gen.Cagelike)
	if err != nil {
		log.Fatal(err)
	}
	m := spec.Generate(gen.Tiny)
	const procs = 64
	part, err := partitioners.Run(partitioners.PATOHP, m, procs, 1)
	if err != nil {
		log.Fatal(err)
	}
	tg, err := taskgraph.Build(m, part, procs)
	if err != nil {
		log.Fatal(err)
	}

	// Three networks, one engine each. Every allocation reserves 4
	// busy-machine hosts × 16 processors = the 64 processes.
	torus := topomap.NewHopperTorus(6, 6, 6)
	torusAlloc, err := topomap.SparseAllocation(torus, procs/16, 42)
	if err != nil {
		log.Fatal(err)
	}
	ft, err := topomap.NewFatTree(8, 10e9, 2)
	if err != nil {
		log.Fatal(err)
	}
	ftAlloc, err := topomap.FatTreeSparseHosts(ft, procs/16, 42)
	if err != nil {
		log.Fatal(err)
	}
	df, err := topomap.NewDragonfly(3, 10e9, 5e9, 4e9)
	if err != nil {
		log.Fatal(err)
	}
	dfAlloc, err := topomap.DragonflySparseHosts(df, procs/16, 42)
	if err != nil {
		log.Fatal(err)
	}

	networks := []struct {
		name  string
		topo  topomap.Topology
		alloc *topomap.Allocation
	}{
		{"torus 6x6x6", torus, torusAlloc},
		{"fat tree k=8", ft, ftAlloc},
		{"dragonfly h=3", df, dfAlloc},
	}

	// The identical batch of solves for every network: the seven
	// Figure-2 mappers.
	var solves []topomap.Solve
	for _, mp := range topomap.Mappers() {
		solves = append(solves, topomap.Solve{Mapper: mp, Seed: 1})
	}

	for _, net := range networks {
		eng, err := topomap.NewEngine(net.topo, net.alloc)
		if err != nil {
			log.Fatal(err)
		}
		results, err := eng.RunBatch(context.Background(), tg, solves, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s (%d tasks on %d nodes)\n", net.name, tg.K, net.alloc.NumNodes())
		fmt.Printf("%-6s %10s %8s %12s\n", "mapper", "WH", "TH", "MC (µs)")
		var defWH, bestWH int64
		for i, res := range results {
			fmt.Printf("%-6s %10d %8d %12.4g\n", res.Mapper, res.Metrics.WH, res.Metrics.TH, res.Metrics.MC*1e6)
			if res.Mapper == topomap.DEF {
				defWH = res.Metrics.WH
			}
			if i == 0 || res.Metrics.WH < bestWH {
				bestWH = res.Metrics.WH
			}
		}
		if bestWH > defWH {
			log.Fatalf("%s: no mapper matched DEF (best WH %d vs %d)", net.name, bestWH, defWH)
		}
		fmt.Printf("best mapper improves WH over DEF by %.1f%%\n",
			100*(1-float64(bestWH)/float64(defWH)))
	}

	fmt.Println("\nsame Solve, three topologies — the engine is the only thing that changed")
}
