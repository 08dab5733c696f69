// Fattree: topology-aware mapping on a k-ary fat tree, the most
// common non-torus interconnect. The paper presents its WH-minimizing
// algorithms as topology-agnostic (§III); this example serves a k=8
// fat tree (128 hosts, 2:1 bandwidth taper) through the Engine API —
// the same Solve specs that run on a torus — then layers the manual
// ECMP-aware congestion refinement on top of the best WH mapping and
// evaluates both the static (D-mod-k) and adaptive (ECMP-spread)
// congestion of every mapping.
package main

import (
	"context"
	"fmt"
	"log"

	topomap "repro"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/partitioners"
	"repro/internal/routecache"
	"repro/internal/taskgraph"
)

func main() {
	// A 128-host fat tree with 10 GB/s host links and a 2:1 taper at
	// each level upward (edge-agg 5 GB/s, agg-core 2.5 GB/s).
	ft, err := topomap.NewFatTree(8, 10e9, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fat tree: k=8, %d hosts, %d vertices, %d directed links\n",
		ft.Hosts(), ft.Nodes(), ft.Links())

	// A sparse allocation of 48 hosts on the busy machine, and the
	// engine serving it: D-mod-k routes between every allocated host
	// pair are precomputed once, shared by all requests below.
	a, err := topomap.FatTreeSparseHosts(ft, 48, 42)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := topomap.NewEngine(ft, a)
	if err != nil {
		log.Fatal(err)
	}

	// Task graph: a 1D row-wise SpMV communication graph of the
	// cagelike matrix, partitioned to one task per processor.
	spec, err := gen.ByName(gen.Cagelike)
	if err != nil {
		log.Fatal(err)
	}
	m := spec.Generate(gen.Tiny)
	part, err := partitioners.Run(partitioners.PATOHP, m, a.TotalProcs(), 1)
	if err != nil {
		log.Fatal(err)
	}
	tg, err := taskgraph.Build(m, part, a.TotalProcs())
	if err != nil {
		log.Fatal(err)
	}

	// Three mappings through one engine. On a fat tree the block
	// placement (DEF) is already a strong baseline — allocation order
	// follows pod locality — so the interesting comparisons are
	// refinements of it: DEF polished by Algorithm 2 (Solve.Refine),
	// the full UG+UWH construction, and below, the ECMP-aware
	// congestion refinement on the best WH mapping.
	results, err := eng.RunBatch(context.Background(), tg, []topomap.Solve{
		{Mapper: topomap.DEF, Seed: 1},
		{Mapper: topomap.DEF, Seed: 1, Refine: true},
		{Mapper: topomap.UWH, Seed: 1},
	}, 0)
	if err != nil {
		log.Fatal(err)
	}
	block, refined, uwh := results[0], results[1], results[2]

	// The ECMP refinement is the manual layer: copy the best WH
	// mapping and lower its expected congestion over all minimal
	// (agg, core) route choices.
	best := refined
	if uwh.Metrics.WH < refined.Metrics.WH {
		best = uwh
	}
	ecmpNodeOf := append([]int32(nil), best.NodeOf...)
	tab, err := routecache.New(ft, a.Nodes)
	if err != nil {
		log.Fatal(err)
	}
	core.RefineCongestionAdaptive(best.Coarse, tab, ecmpNodeOf, core.VolumeCongestion, core.RefineOptions{})

	fmt.Printf("\n%-14s %12s %12s %14s %14s\n", "mapping", "WH", "TH", "MC (static)", "EMC (ECMP)")
	show := func(name string, group, nodeOf []int32) topomap.MapMetrics {
		pl := &topomap.Placement{GroupOf: group, NodeOf: nodeOf}
		mm := eng.Evaluate(tg, pl)
		am := metrics.ComputeAdaptive(tg.G, ft, pl)
		fmt.Printf("%-14s %12d %12d %14.4g %14.4g\n", name, mm.WH, mm.TH, mm.MC*1e6, am.EMC*1e6)
		return mm
	}
	show("block", block.GroupOf, block.NodeOf)
	show("block+UWH", refined.GroupOf, refined.NodeOf)
	show("UG+UWH", uwh.GroupOf, uwh.NodeOf)
	show("best+ECMP", best.GroupOf, ecmpNodeOf)
	fmt.Println("\ncongestion columns are microseconds of bottleneck-link transfer time")

	// Algorithm 2 never accepts a worsening swap, so refining the
	// block mapping cannot regress it; the ECMP refinement likewise
	// never raises the expected congestion it optimizes.
	if refined.Metrics.WH > block.Metrics.WH {
		log.Fatalf("refinement regressed WH: %d -> %d", block.Metrics.WH, refined.Metrics.WH)
	}
	emcOf := func(group, nodeOf []int32) float64 {
		pl := &topomap.Placement{GroupOf: group, NodeOf: nodeOf}
		return metrics.ComputeAdaptive(tg.G, ft, pl).EMC
	}
	emcBest := emcOf(best.GroupOf, best.NodeOf)
	emcECMP := emcOf(best.GroupOf, ecmpNodeOf)
	if emcECMP > emcBest*(1+1e-9) {
		log.Fatalf("ECMP refinement regressed EMC: %g -> %g", emcBest, emcECMP)
	}
	fmt.Printf("refining the block mapping improves WH by %.1f%%; "+
		"ECMP refinement improves expected congestion by %.1f%%\n",
		100*(1-float64(refined.Metrics.WH)/float64(block.Metrics.WH)),
		100*(1-emcECMP/emcBest))
}
