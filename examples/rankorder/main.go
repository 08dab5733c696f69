// Rankorder: the MPI integration workflow. A real deployment captures
// the scheduler's node list, maps the application's task graph, and
// hands the runtime a Cray-style MPICH_RANK_ORDER file
// (MPICH_RANK_REORDER_METHOD=3). This example runs that loop
// end-to-end in memory: node list -> mapping -> rank file -> reread ->
// verify the realized placement carries the same metrics.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"strings"

	topomap "repro"
	"repro/internal/gen"
	"repro/internal/partitioners"
	"repro/internal/taskgraph"
)

func main() {
	topo := topomap.NewHopperTorus(8, 8, 8)

	// The allocation as captured from the scheduler: 16 scattered
	// nodes with 16 processors each, one "node procs" line per node.
	var sb strings.Builder
	sb.WriteString("# captured from the scheduler\n")
	for _, n := range []int{3, 17, 42, 77, 101, 130, 164, 199, 230, 266, 301, 333, 370, 404, 441, 475} {
		fmt.Fprintf(&sb, "%d 16\n", n)
	}
	a, err := topomap.ReadNodeList(strings.NewReader(sb.String()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("allocation: %d nodes, %d processors\n", a.NumNodes(), a.TotalProcs())

	// The application: a 256-process SpMV on the cagelike matrix.
	spec, err := gen.ByName(gen.Cagelike)
	if err != nil {
		log.Fatal(err)
	}
	m := spec.Generate(gen.Tiny)
	part, err := partitioners.Run(partitioners.METISP, m, a.TotalProcs(), 1)
	if err != nil {
		log.Fatal(err)
	}
	tg, err := taskgraph.Build(m, part, a.TotalProcs())
	if err != nil {
		log.Fatal(err)
	}

	// Map with UWH and emit the rank-order file.
	eng, err := topomap.NewEngine(topo, a)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.RunSolve(context.Background(), tg, topomap.Solve{Mapper: topomap.UWH, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	var rankFile bytes.Buffer
	if err := topomap.WriteRankOrder(&rankFile, res.Placement(), a); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nMPICH_RANK_ORDER (%d bytes):\n%s...\n",
		rankFile.Len(), firstLines(rankFile.String(), 3))

	// What the MPI runtime will actually realize from that file:
	order, err := topomap.ReadRankOrder(bytes.NewReader(rankFile.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	realized, err := topomap.PlacementFromRankOrder(order, a)
	if err != nil {
		log.Fatal(err)
	}
	want := topomap.EvaluateMetrics(tg, topo, res.Placement())
	got := topomap.EvaluateMetrics(tg, topo, realized)
	if want != got {
		log.Fatalf("rank file does not carry the mapping faithfully:\n want %+v\n got  %+v", want, got)
	}
	fmt.Printf("realized placement matches the mapping: WH=%d TH=%d MMC=%d MC=%.4g\n",
		got.WH, got.TH, got.MMC, got.MC)

	// For comparison, the metrics of the unreordered (identity) launch.
	identity := make([]int32, a.TotalProcs())
	for i := range identity {
		identity[i] = int32(i)
	}
	defPl, err := topomap.PlacementFromRankOrder(identity, a)
	if err != nil {
		log.Fatal(err)
	}
	def := topomap.EvaluateMetrics(tg, topo, defPl)
	fmt.Printf("without reordering (SMP default):               WH=%d TH=%d MMC=%d MC=%.4g\n",
		def.WH, def.TH, def.MMC, def.MC)
	fmt.Printf("rank reordering improves WH by %.1f%%\n",
		100*(1-float64(got.WH)/float64(def.WH)))
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
