// Quickstart: map a hand-authored task graph onto a torus and watch
// each stage of the paper's pipeline — greedy construction
// (Algorithm 1), WH refinement (Algorithm 2) and congestion
// refinement (Algorithm 3) — move the mapping metrics.
package main

import (
	"fmt"
	"log"

	topomap "repro"
	"repro/internal/core"
	"repro/internal/routecache"
)

func main() {
	// A 6x6 halo-exchange application: 36 tasks on a grid, each
	// exchanging 100 units with its grid neighbours.
	const side = 6
	var us, vs []int32
	var ws []int64
	id := func(r, c int) int32 { return int32(r*side + c) }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				us = append(us, id(r, c), id(r, c+1))
				vs = append(vs, id(r, c+1), id(r, c))
				ws = append(ws, 100, 100)
			}
			if r+1 < side {
				us = append(us, id(r, c), id(r+1, c))
				vs = append(vs, id(r+1, c), id(r, c))
				ws = append(ws, 100, 100)
			}
		}
	}
	coarse := topomap.FromEdges(side*side, us, vs, ws)
	tg := &topomap.TaskGraph{G: coarse, K: side * side}

	// A 6x6x6 torus with a sparse 36-node allocation, one task per node.
	topo := topomap.NewHopperTorus(6, 6, 6)
	alloc, err := topomap.SparseAllocation(topo, side*side, 7)
	if err != nil {
		log.Fatal(err)
	}

	show := func(name string, nodeOf []int32) {
		m := topomap.EvaluateMetrics(tg, topo, &topomap.Placement{NodeOf: nodeOf})
		fmt.Printf("%-12s WH=%-7d TH=%-5d MMC=%-4d MC=%.4g\n",
			name, m.WH, m.TH, m.MMC, m.MC)
	}

	fmt.Println("6x6 halo exchange on a 6x6x6 torus, 36 sparse nodes")

	// Default placement: task i on the i-th allocated node.
	def := make([]int32, side*side)
	copy(def, alloc.Nodes)
	show("DEF", def)

	// The stages read hop distances and routes from the allocation's
	// route table, built once (an Engine builds the same in NewEngine).
	tab, err := routecache.New(topo, alloc.Nodes)
	if err != nil {
		log.Fatal(err)
	}

	// Stage 1: greedy construction (UG).
	ug := core.MapUG(coarse, tab, nil)
	show("UG", ug)

	// Stage 2: WH refinement on top (UWH).
	uwh := append([]int32(nil), ug...)
	gain := core.RefineWH(coarse, tab, uwh, core.RefineOptions{})
	show("UWH", uwh)

	// Stage 3 (alternative): congestion refinement on top of UG (UMC)
	// — trades a little WH for the best max congestion.
	umc := append([]int32(nil), ug...)
	swaps := core.RefineCongestion(coarse, tab, umc, core.VolumeCongestion, core.RefineOptions{})
	show("UMC", umc)

	fmt.Printf("\nWH refinement gained %d weighted hops; MC refinement made %d swaps\n",
		gain, swaps)
}
