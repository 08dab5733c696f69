package exp

import (
	"fmt"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/routecache"
	"repro/internal/stats"
	"repro/internal/torus"
)

// Ablations reports the extension experiments of DESIGN.md §7 that
// fall outside the paper's figures: the multilevel mapper (§III-B)
// against UG/UWH, and the dynamic-routing variant (§III-C) against
// the static congestion refinement, scored both by expected
// congestion and by the multipath simulator. One deterministic
// instance (a random coarse graph on a Hopper-like torus) keeps the
// run to seconds; the benchmark harness covers the same comparisons
// under `go test -bench=BenchmarkAblation`.
func Ablations(cfg Config) (string, error) {
	topo := torus.NewHopper3D(cfg.TorusDims[0], cfg.TorusDims[1], cfg.TorusDims[2])
	n := cfg.PartCounts[len(cfg.PartCounts)-1] / cfg.ProcsPerNode
	if n < 8 {
		n = 8
	}
	if n > topo.Nodes()/2 {
		n = topo.Nodes() / 2
	}
	a, err := alloc.Generate(topo, n, alloc.Config{
		Mode: alloc.Sparse, Seed: cfg.Seed, ProcsPerNode: cfg.ProcsPerNode,
	})
	if err != nil {
		return "", err
	}
	g := graph.RandomConnected(n, 4*n, 100, cfg.Seed+1)

	out := &stats.Table{
		Title: fmt.Sprintf("Extension ablations (%d supertasks, %dx%dx%d torus)",
			n, cfg.TorusDims[0], cfg.TorusDims[1], cfg.TorusDims[2]),
		Headers: []string{"variant", "WH", "EMC(us)", "adaptiveSim(us)", "mapTime(ms)"},
	}
	row := func(name string, mapFn func() []int32) {
		start := time.Now()
		nodeOf := mapFn()
		dt := time.Since(start)
		pl := &metrics.Placement{NodeOf: nodeOf}
		wh := metrics.WeightedHops(g, topo, nodeOf)
		emc := metrics.ComputeAdaptive(g, topo, pl).EMC
		sim := netsim.CommOnlyAdaptive(g, topo, pl, 4096,
			netsim.Params{Seed: cfg.Seed, NoiseSigma: 1e-9}).Seconds
		out.AddRow(name,
			fmt.Sprint(wh),
			fmt.Sprintf("%.4f", emc*1e6),
			fmt.Sprintf("%.2f", sim*1e6),
			fmt.Sprintf("%.1f", dt.Seconds()*1e3))
	}
	tab, err := routecache.New(topo, a.Nodes)
	if err != nil {
		return "", err
	}
	row("UG (Alg 1)", func() []int32 { return core.MapUG(g, tab, nil) })
	row("UWH (Alg 1+2)", func() []int32 { return core.MapUWH(g, tab, nil) })
	row("UML (multilevel, §III-B)", func() []int32 {
		return core.MapUML(g, tab, nil)
	})
	row("UMC (Alg 3, static model)", func() []int32 { return core.MapUMC(g, tab, nil) })
	row("UMCA (Alg 3, adaptive model, §III-C)", func() []int32 {
		return core.MapUMCA(g, tab, nil)
	})
	return render(out), nil
}
