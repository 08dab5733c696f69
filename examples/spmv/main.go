// SpMV: the full paper pipeline on the cage15 stand-in — partition a
// sparse matrix, build the MPI task graph, map it with every
// algorithm, and simulate the SpMV kernel (§IV-D) to see which
// mapping wins.
package main

import (
	"context"
	"fmt"
	"log"

	topomap "repro"
	"repro/internal/gen"
	"repro/internal/netsim"
	"repro/internal/partitioners"
	"repro/internal/taskgraph"
)

func main() {
	const procs = 256
	spec, err := gen.ByName(gen.Cagelike)
	if err != nil {
		log.Fatal(err)
	}
	m := spec.Generate(gen.Tiny)
	fmt.Printf("matrix: cagelike (%d rows, %d nnz), %d MPI processes\n",
		m.Rows, m.NNZ(), procs)

	part, err := partitioners.Run(partitioners.PATOHP, m, procs, 1)
	if err != nil {
		log.Fatal(err)
	}
	tg, err := taskgraph.Build(m, part, procs)
	if err != nil {
		log.Fatal(err)
	}
	pm := tg.PartitionMetrics()
	fmt.Printf("partition: TV=%d TM=%d MSV=%d MSM=%d\n\n", pm.TV, pm.TM, pm.MSV, pm.MSM)

	topo := topomap.NewHopperTorus(8, 8, 8)
	alloc, err := topomap.SparseAllocation(topo, procs/16, 3)
	if err != nil {
		log.Fatal(err)
	}
	// One engine for the allocation; its cached routing state serves
	// every mapper below.
	eng, err := topomap.NewEngine(topo, alloc)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-6s %10s %10s %12s %14s\n", "mapper", "TH", "MMC", "MC", "SpMV time (s)")
	var defTime float64
	for _, mapper := range topomap.Mappers() {
		res, err := eng.RunSolve(context.Background(), tg, topomap.Solve{Mapper: mapper, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		secs := netsim.SpMV(tg.G, topo, res.Placement(), 500, netsim.Params{Seed: 42}).Seconds
		if mapper == topomap.DEF {
			defTime = secs
		}
		fmt.Printf("%-6s %10d %10d %12.4g %10.4f (%.2fx)\n",
			mapper, res.Metrics.TH, res.Metrics.MMC, res.Metrics.MC, secs, secs/defTime)
	}
}
