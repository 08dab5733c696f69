// Commonly: the communication-only experiment (§IV-C) on the rgg
// stand-in — scaled message sizes make the run bandwidth-bound, so
// the congestion-minimizing UMC mapping shines.
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
	const (
		procs        = 256
		bytesPerUnit = 262144 // the paper's 256K scale factor for rgg
	)
	spec, err := gen.ByName(gen.RGGName)
	if err != nil {
		log.Fatal(err)
	}
	m := spec.Generate(gen.Tiny)
	fmt.Printf("matrix: rgg (%d rows, %d nnz), %d processes, scale 256K\n\n",
		m.Rows, m.NNZ(), procs)

	topo := topomap.NewHopperTorus(8, 8, 8)
	alloc, err := topomap.SparseAllocation(topo, procs/16, 11)
	if err != nil {
		log.Fatal(err)
	}
	// One engine serves both partitioners' sweeps — the routing state
	// depends only on the (topology, allocation) pair.
	eng, err := topomap.NewEngine(topo, alloc)
	if err != nil {
		log.Fatal(err)
	}

	// Every solve also runs the communication-only simulator on its
	// finished mapping.
	sim := &topomap.SimSpec{BytesPerUnit: bytesPerUnit, Params: topomap.SimParams{Seed: 42}}

	// Compare two partitioners × all mappers, as Figure 4b does.
	for _, p := range []partitioners.Name{partitioners.PATOHP, partitioners.UMPAMM} {
		part, err := partitioners.Run(p, m, procs, 1)
		if err != nil {
			log.Fatal(err)
		}
		tg, err := taskgraph.Build(m, part, procs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("partitioner %s:\n", p)
		fmt.Printf("  %-6s %10s %12s %14s\n", "mapper", "WH", "MC", "comm time (s)")
		var defTime float64
		for _, mapper := range topomap.Mappers() {
			if mapper == topomap.SMAP {
				continue // excluded from Figure 4 in the paper too
			}
			res, err := eng.RunSolve(context.Background(), tg, topomap.Solve{Mapper: mapper, Seed: 1, Sim: sim})
			if err != nil {
				log.Fatal(err)
			}
			secs := res.SimSeconds
			if mapper == topomap.DEF {
				defTime = secs
			}
			fmt.Printf("  %-6s %10d %12.4g %10.5f (%.2fx)\n",
				mapper, res.Metrics.WH, res.Metrics.MC, secs, secs/defTime)
		}
		fmt.Println()
	}
}
