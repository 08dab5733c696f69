// Customtopo: mapping on a 5D torus (BlueGene/Q-like), showing that
// the WH-minimizing algorithms apply to any topology (§III: "the ones
// that minimize WH can be applied to various topologies").
package main

import (
	"fmt"
	"log"

	topomap "repro"
	"repro/internal/core"
	"repro/internal/routecache"
)

func main() {
	// A 5D torus 4x4x4x2x2 with heterogeneous bandwidths.
	topo := topomap.NewTorus(
		[]int{4, 4, 4, 2, 2},
		[]float64{9e9, 9e9, 9e9, 4.5e9, 4.5e9},
	)
	fmt.Printf("5D torus: %d nodes, diameter %d\n", topo.Nodes(), topo.Diameter())

	// A ring-of-cliques task graph: 8 groups of 4 tightly coupled
	// tasks, light ring coupling between groups.
	const groups, size = 8, 4
	var us, vs []int32
	var ws []int64
	add := func(a, b int32, w int64) {
		us = append(us, a, b)
		vs = append(vs, b, a)
		ws = append(ws, w, w)
	}
	for g := 0; g < groups; g++ {
		base := int32(g * size)
		for i := int32(0); i < size; i++ {
			for j := i + 1; j < size; j++ {
				add(base+i, base+j, 50)
			}
		}
		next := int32((g + 1) % groups * size)
		add(base, next, 5)
	}
	coarse := topomap.FromEdges(groups*size, us, vs, ws)

	allocNodes := make([]int32, groups*size)
	for i := range allocNodes {
		// A strided (fragmented) allocation across the 5D machine.
		allocNodes[i] = int32((i * 7) % topo.Nodes())
	}
	seen := map[int32]bool{}
	for i, n := range allocNodes {
		for seen[n] {
			n = (n + 1) % int32(topo.Nodes())
		}
		seen[n] = true
		allocNodes[i] = n
	}

	naive := append([]int32(nil), allocNodes...)
	// The core stages read distances and routes from the allocation's
	// route table, the one an Engine builds in NewEngine.
	tab, err := routecache.New(topo, allocNodes)
	if err != nil {
		log.Fatal(err)
	}
	mapped := core.MapUWH(coarse, tab, nil)

	tg := &topomap.TaskGraph{G: coarse, K: groups * size}
	mN := topomap.EvaluateMetrics(tg, topo, &topomap.Placement{NodeOf: naive})
	mU := topomap.EvaluateMetrics(tg, topo, &topomap.Placement{NodeOf: mapped})
	if mU.WH > mN.WH {
		log.Fatalf("mapping regressed WH: %d -> %d", mN.WH, mU.WH)
	}
	fmt.Printf("%-20s %10s %10s\n", "metric", "naive", "UG+UWH")
	fmt.Printf("%-20s %10d %10d\n", "weighted hops", mN.WH, mU.WH)
	fmt.Printf("%-20s %10d %10d\n", "total hops", mN.TH, mU.TH)
	fmt.Printf("%-20s %10.4g %10.4g\n", "max congestion", mN.MC, mU.MC)
	fmt.Printf("improvement: %.1f%% WH\n", 100*(1-float64(mU.WH)/float64(mN.WH)))

	// The same task graph on a dragonfly (Cray Aries class): groups
	// of routers with a full local mesh, one global link per group
	// pair, unique hierarchical minimal routing.
	df, err := topomap.NewDragonfly(2, 10e9, 5e9, 4e9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndragonfly: h=2 -> %d groups x %d routers, %d hosts, diameter %d\n",
		df.Groups(), df.RoutersPerGroup(), df.Hosts(), df.Diameter())
	dAlloc, err := topomap.DragonflySparseHosts(df, groups*size, 7)
	if err != nil {
		log.Fatal(err)
	}
	dNaive := append([]int32(nil), dAlloc.Nodes...)
	dTab, err := routecache.New(df, dAlloc.Nodes)
	if err != nil {
		log.Fatal(err)
	}
	dMapped := core.MapUWH(coarse, dTab, nil)
	dN := topomap.EvaluateMetrics(tg, df, &topomap.Placement{NodeOf: dNaive})
	dU := topomap.EvaluateMetrics(tg, df, &topomap.Placement{NodeOf: dMapped})
	if dU.WH > dN.WH {
		log.Fatalf("dragonfly mapping regressed WH: %d -> %d", dN.WH, dU.WH)
	}
	fmt.Printf("%-20s %10s %10s\n", "metric", "block", "UG+UWH")
	fmt.Printf("%-20s %10d %10d\n", "weighted hops", dN.WH, dU.WH)
	fmt.Printf("%-20s %10.4g %10.4g\n", "max congestion", dN.MC, dU.MC)
	fmt.Printf("improvement: %.1f%% WH\n", 100*(1-float64(dU.WH)/float64(dN.WH)))
}
