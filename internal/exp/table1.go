package exp

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/parallel"
	"repro/internal/partitioners"
	"repro/internal/stats"

	topomap "repro"
)

// Table1 regenerates Table I: for the cagelike SpMV kernel and the
// communication-only applications (cagelike and rgg), at two
// processor counts and two allocations each, the geometric mean of
// execution times across all seven partitioner graphs — DEF in
// seconds, the other mappers normalized to DEF.
func (s *Suite) Table1() (string, error) {
	c := s.c
	cfg := s.cfg
	topo := cfg.torus()
	out := &stats.Table{
		Title:   "Table I: average improvements (time normalized to DEF; DEF in seconds)",
		Headers: []string{"workload", "procs", "alloc", "DEF(s)", "TMAP", "UG", "UWH", "UMC", "UMMC"},
	}
	mappers := []topomap.Mapper{topomap.TMAP, topomap.UG, topomap.UWH, topomap.UMC, topomap.UMMC}

	// Two largest part counts of the sweep (the paper uses 4096 and
	// 8192), two allocations.
	ks := cfg.PartCounts
	if len(ks) > 2 {
		ks = ks[len(ks)-2:]
	}
	type workload struct {
		label  string
		matrix string
		kind   string  // "spmv" or "comm"
		scale  float64 // bytesPerUnit for comm
		iters  []int   // per allocation index for spmv (500/1000)
		ks     []int
	}
	workloads := []workload{
		{"cagelike SpMV", gen.Cagelike, "spmv", 0, []int{500, 1000}, ks},
		{"cagelike Comm", gen.Cagelike, "comm", 4096, nil, ks},
		{"rgg Comm", gen.RGGName, "comm", 262144, nil, ks[:1]},
	}

	// Per workload: normalized times for the grand geomean rows.
	grand := map[string]map[topomap.Mapper][]float64{}
	grandDEF := map[string][]float64{}

	for _, wl := range workloads {
		grand[wl.label] = map[topomap.Mapper][]float64{}
		for _, k := range wl.ks {
			nNodes := k / cfg.ProcsPerNode
			if nNodes < 2 || nNodes > topo.Nodes() {
				continue
			}
			for ai := 0; ai < 2; ai++ {
				a, err := c.allocOf(topo, nNodes, cfg.Seed+int64(ai)*101)
				if err != nil {
					return "", err
				}
				iters := 0
				if wl.kind == "spmv" {
					iters = wl.iters[ai%len(wl.iters)]
				}
				// One parallel unit per partitioner; aggregation
				// below runs in partitioner order, so the table is
				// identical to a serial run's.
				type partResult struct {
					skip    bool
					defTime float64
					normed  map[topomap.Mapper]float64
				}
				parts := partitioners.All()
				results, err := parallel.Map(len(parts), 0, func(pi int) (partResult, error) {
					tg, err := c.taskGraphOf(wl.matrix, parts[pi], k)
					if err == errSkip {
						return partResult{skip: true}, nil
					}
					if err != nil {
						return partResult{}, err
					}
					defRes, _, err := c.mapCase(topomap.DEF, tg, topo, a, cfg.Seed)
					if err != nil {
						return partResult{}, err
					}
					defTime, _ := c.simulate(wl.kind, tg, topo, defRes.Placement(), wl.scale, iters)
					pr := partResult{defTime: defTime, normed: map[topomap.Mapper]float64{}}
					for _, mp := range mappers {
						res, _, err := c.mapCase(mp, tg, topo, a, cfg.Seed)
						if err != nil {
							return partResult{}, err
						}
						mt, _ := c.simulate(wl.kind, tg, topo, res.Placement(), wl.scale, iters)
						if defTime > 0 {
							pr.normed[mp] = mt / defTime
						}
					}
					return pr, nil
				})
				if err != nil {
					return "", err
				}
				var defTimes []float64
				normed := map[topomap.Mapper][]float64{}
				for _, pr := range results {
					if pr.skip {
						continue
					}
					defTimes = append(defTimes, pr.defTime)
					for _, mp := range mappers {
						if v, ok := pr.normed[mp]; ok {
							normed[mp] = append(normed[mp], v)
						}
					}
				}
				row := []string{wl.label, fmt.Sprint(k), fmt.Sprint(ai + 1),
					fmt.Sprintf("%.3g", stats.GeoMean(defTimes))}
				for _, mp := range mappers {
					row = append(row, stats.F2(stats.GeoMean(normed[mp])))
					grand[wl.label][mp] = append(grand[wl.label][mp], normed[mp]...)
				}
				out.AddRow(row...)
				grandDEF[wl.label] = append(grandDEF[wl.label], defTimes...)
				c.progressf("  table1: %s k=%d alloc=%d done\n", wl.label, k, ai)
			}
		}
		// Geometric-mean summary row per workload.
		row := []string{wl.label + " Gmean", "", "",
			fmt.Sprintf("%.3g", stats.GeoMean(grandDEF[wl.label]))}
		for _, mp := range mappers {
			row = append(row, stats.F2(stats.GeoMean(grand[wl.label][mp])))
		}
		out.AddRow(row...)
	}
	return render(out), nil
}
