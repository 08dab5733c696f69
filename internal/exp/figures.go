package exp

import (
	"fmt"
	"strings"

	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/partitioners"
	"repro/internal/stats"

	topomap "repro"
)

// Figure1 regenerates Figure 1: geometric means of the partition
// metrics TV, TM, MSV, MSM per partitioner and part count, normalized
// to PATOH's value on the same matrix and part count.
func (s *Suite) Figure1() (string, error) {
	c := s.c
	cfg := s.cfg
	out := &stats.Table{
		Title:   "Figure 1: partition metrics, geomean normalized to PATOH",
		Headers: []string{"k", "partitioner", "TV", "TM", "MSV", "MSM"},
	}
	// Partition every (matrix, partitioner, k) case in parallel up
	// front; the reporting loops below then only read the cache.
	var cases []tgCase
	for _, k := range cfg.PartCounts {
		for _, p := range partitioners.All() {
			for _, name := range cfg.matrices() {
				cases = append(cases, tgCase{name, p, k})
			}
		}
	}
	if err := s.warmTaskGraphs(cases); err != nil {
		return "", err
	}
	for _, k := range cfg.PartCounts {
		// Collect PATOH baselines first.
		type met = map[string]float64
		base := map[string]met{}
		for _, name := range cfg.matrices() {
			tg, err := c.taskGraphOf(name, partitioners.PATOHP, k)
			if err == errSkip {
				continue
			}
			if err != nil {
				return "", err
			}
			pm := tg.PartitionMetrics()
			base[name] = met{"TV": float64(pm.TV), "TM": float64(pm.TM),
				"MSV": float64(pm.MSV), "MSM": float64(pm.MSM)}
		}
		for _, p := range partitioners.All() {
			ratios := map[string][]float64{}
			for _, name := range cfg.matrices() {
				b, ok := base[name]
				if !ok {
					continue
				}
				tg, err := c.taskGraphOf(name, p, k)
				if err == errSkip {
					continue
				}
				if err != nil {
					return "", err
				}
				pm := tg.PartitionMetrics()
				for metName, val := range map[string]float64{
					"TV": float64(pm.TV), "TM": float64(pm.TM),
					"MSV": float64(pm.MSV), "MSM": float64(pm.MSM)} {
					if b[metName] > 0 && val > 0 {
						ratios[metName] = append(ratios[metName], val/b[metName])
					}
				}
			}
			out.AddRow(fmt.Sprint(k), string(p),
				stats.F(stats.GeoMean(ratios["TV"])),
				stats.F(stats.GeoMean(ratios["TM"])),
				stats.F(stats.GeoMean(ratios["MSV"])),
				stats.F(stats.GeoMean(ratios["MSM"])))
		}
	}
	return render(out), nil
}

// Figure2 regenerates Figure 2: mean mapping metric values (TH, WH,
// MMC, MC) of the seven mappers on the PATOH task graphs, normalized
// to DEF, per processor count.
func (s *Suite) Figure2() (string, error) {
	c := s.c
	cfg := s.cfg
	topo := cfg.torus()
	out := &stats.Table{
		Title:   "Figure 2: mapping metrics on PATOH graphs, geomean normalized to DEF",
		Headers: []string{"procs", "mapper", "TH", "WH", "MMC", "MC"},
	}
	metricNames := []string{"th", "wh", "mmc", "mc"}
	if err := s.warmPATOH(); err != nil {
		return "", err
	}
	for _, k := range cfg.PartCounts {
		nNodes := k / cfg.ProcsPerNode
		if nNodes < 2 || nNodes > topo.Nodes() {
			continue
		}
		// One independent unit of work per (matrix, allocation) pair;
		// the units run in parallel and their per-mapper metric
		// ratios are aggregated afterwards in deterministic order.
		type unit struct {
			name string
			tg   *topomap.TaskGraph
			ai   int
		}
		var units []unit
		for _, name := range cfg.matrices() {
			tg, err := c.taskGraphOf(name, partitioners.PATOHP, k)
			if err == errSkip {
				continue
			}
			if err != nil {
				return "", err
			}
			for ai := 0; ai < cfg.Allocations; ai++ {
				units = append(units, unit{name, tg, ai})
			}
		}
		results, err := parallel.Map(len(units), 0,
			func(i int) (map[topomap.Mapper]metrics.MapMetrics, error) {
				u := units[i]
				a, err := c.allocOf(topo, nNodes, cfg.Seed+int64(u.ai)*101)
				if err != nil {
					return nil, err
				}
				got := map[topomap.Mapper]metrics.MapMetrics{}
				for _, mp := range topomap.Mappers() {
					res, _, err := c.mapCase(mp, u.tg, topo, a, cfg.Seed)
					if err != nil {
						return nil, err
					}
					got[mp] = res.Metrics
				}
				c.progressf("  fig2: %s k=%d alloc=%d done\n", u.name, k, u.ai)
				return got, nil
			})
		if err != nil {
			return "", err
		}
		ratios := map[topomap.Mapper]map[string][]float64{}
		for _, mp := range topomap.Mappers() {
			ratios[mp] = map[string][]float64{}
		}
		for _, got := range results {
			def := got[topomap.DEF]
			for _, mp := range topomap.Mappers() {
				for _, mn := range metricNames {
					b, _ := metrics.MetricValue(def, mn)
					v, _ := metrics.MetricValue(got[mp], mn)
					if b > 0 {
						ratios[mp][mn] = append(ratios[mp][mn], v/b)
					}
				}
			}
		}
		for _, mp := range topomap.Mappers() {
			row := []string{fmt.Sprint(k), string(mp)}
			for _, mn := range metricNames {
				row = append(row, stats.F(stats.GeoMean(ratios[mp][mn])))
			}
			out.AddRow(row...)
		}
	}
	return render(out), nil
}

// warmPATOH partitions every (matrix, k) case with PATOH in parallel,
// the task graphs Figures 2 and 3 map.
func (s *Suite) warmPATOH() error {
	var warm []tgCase
	for _, k := range s.cfg.PartCounts {
		for _, name := range s.cfg.matrices() {
			warm = append(warm, tgCase{name, partitioners.PATOHP, k})
		}
	}
	return s.warmTaskGraphs(warm)
}

// Figure3 regenerates Figure 3: geometric mean mapping times (in
// seconds) of the mapping algorithms on PATOH task graphs. As in the
// paper, the times of UWH, UMC and UMMC include the UG construction
// they refine.
func (s *Suite) Figure3() (string, error) {
	c := s.c
	cfg := s.cfg
	topo := cfg.torus()
	out := &stats.Table{
		Title:   "Figure 3: geometric mean mapping times (seconds)",
		Headers: []string{"procs", "TMAP", "SMAP", "UG", "UWH", "UMC", "UMMC"},
	}
	mappers := []topomap.Mapper{topomap.TMAP, topomap.SMAP, topomap.UG,
		topomap.UWH, topomap.UMC, topomap.UMMC}
	// Partition in parallel, but run and time the mappers serially:
	// Figure 3 reports wall-clock mapping times, which concurrent
	// execution would contaminate.
	if err := s.warmPATOH(); err != nil {
		return "", err
	}
	for _, k := range cfg.PartCounts {
		nNodes := k / cfg.ProcsPerNode
		if nNodes < 2 || nNodes > topo.Nodes() {
			continue
		}
		times := map[topomap.Mapper][]float64{}
		for _, name := range cfg.matrices() {
			tg, err := c.taskGraphOf(name, partitioners.PATOHP, k)
			if err == errSkip {
				continue
			}
			if err != nil {
				return "", err
			}
			a, err := c.allocOf(topo, nNodes, cfg.Seed)
			if err != nil {
				return "", err
			}
			for _, mp := range mappers {
				_, dt, err := c.mapCase(mp, tg, topo, a, cfg.Seed)
				if err != nil {
					return "", err
				}
				times[mp] = append(times[mp], dt.Seconds())
			}
		}
		row := []string{fmt.Sprint(k)}
		for _, mp := range mappers {
			row = append(row, fmt.Sprintf("%.4f", stats.GeoMean(times[mp])))
		}
		out.AddRow(row...)
	}
	return render(out), nil
}

// Figure4 regenerates Figure 4a (cagelike, the cage15 stand-in) or 4b
// (rgg): communication-only execution times and the WH/MMC/MC metrics
// for every partitioner × mapper, normalized to DEF on the PATOH
// graph.
func (s *Suite) Figure4(variant string) (string, error) {
	var matName string
	var bytesPerUnit float64
	switch variant {
	case "a":
		matName, bytesPerUnit = gen.Cagelike, 4096
	case "b":
		matName, bytesPerUnit = gen.RGGName, 262144
	default:
		return "", fmt.Errorf("exp: Figure4 variant must be \"a\" or \"b\"")
	}
	k := s.cfg.PartCounts[len(s.cfg.PartCounts)-1]
	return s.simFigure(simSweep{
		title:        fmt.Sprintf("Figure 4 (%s, %d procs, scale %g): comm-only, normalized to DEF on PATOH", matName, k, bytesPerUnit),
		matName:      matName,
		metrics:      [3]string{"wh", "mmc", "mc"},
		timeCol:      "CommTime",
		label:        "fig4 " + matName,
		sim:          "comm",
		bytesPerUnit: bytesPerUnit,
	})
}

// Figure5 regenerates Figure 5: SpMV (Tpetra-like) execution for the
// cagelike matrix: TH, MMC, MC and time per partitioner × mapper,
// normalized to DEF on the PATOH graph.
func (s *Suite) Figure5() (string, error) {
	const iters = 500
	k := s.cfg.PartCounts[len(s.cfg.PartCounts)-1]
	return s.simFigure(simSweep{
		title:   fmt.Sprintf("Figure 5 (SpMV %s, %d procs, %d iters): normalized to DEF on PATOH", gen.Cagelike, k, iters),
		matName: gen.Cagelike,
		metrics: [3]string{"th", "mmc", "mc"},
		timeCol: "TpetraTime",
		label:   "fig5",
		sim:     "spmv",
		iters:   iters,
	})
}

// simSweep is one simulated figure (4a, 4b, 5): the matrix, the three
// metric columns by canonical name, the time column's header and the
// simulator run (see cache.simulate).
type simSweep struct {
	title, matName, timeCol, label string
	metrics                        [3]string
	sim                            string
	bytesPerUnit                   float64
	iters                          int
}

// simFigure runs the sweep of Figures 4 and 5: every partitioner ×
// mapper at the largest processor count, its metric columns and
// simulated time normalized to DEF on the PATOH graph.
func (s *Suite) simFigure(f simSweep) (string, error) {
	c := s.c
	cfg := s.cfg
	topo := cfg.torus()
	k := cfg.PartCounts[len(cfg.PartCounts)-1]
	nNodes := k / cfg.ProcsPerNode
	headers := []string{"partitioner", "mapper"}
	for _, name := range f.metrics {
		headers = append(headers, strings.ToUpper(name))
	}
	out := &stats.Table{Title: f.title, Headers: append(headers, f.timeCol, "±std")}
	a, err := c.allocOf(topo, nNodes, cfg.Seed)
	if err != nil {
		return "", err
	}
	// Baseline: DEF mapping of the PATOH graph.
	baseTG, err := c.taskGraphOf(f.matName, partitioners.PATOHP, k)
	if err != nil {
		return "", err
	}
	baseRes, _, err := c.mapCase(topomap.DEF, baseTG, topo, a, cfg.Seed)
	if err != nil {
		return "", err
	}
	baseTime, _ := c.simulate(f.sim, baseTG, topo, baseRes.Placement(), f.bytesPerUnit, f.iters)

	// Each partitioner's rows are independent: compute them in
	// parallel and emit in figure order.
	parts := partitioners.All()
	rows, err := parallel.Map(len(parts), 0, func(pi int) ([][]string, error) {
		p := parts[pi]
		tg, err := c.taskGraphOf(f.matName, p, k)
		if err == errSkip {
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		var group [][]string
		for _, mp := range commMappers() {
			res, _, err := c.mapCase(mp, tg, topo, a, cfg.Seed)
			if err != nil {
				return nil, err
			}
			mean, std := c.simulate(f.sim, tg, topo, res.Placement(), f.bytesPerUnit, f.iters)
			row := []string{string(p), string(mp)}
			for _, name := range f.metrics {
				v, _ := metrics.MetricValue(res.Metrics, name)
				b, _ := metrics.MetricValue(baseRes.Metrics, name)
				row = append(row, stats.F(v/b))
			}
			group = append(group, append(row, stats.F(mean/baseTime), stats.F(std/baseTime)))
		}
		c.progressf("  %s: partitioner %s done\n", f.label, p)
		return group, nil
	})
	if err != nil {
		return "", err
	}
	for _, group := range rows {
		for _, row := range group {
			out.AddRow(row...)
		}
	}
	return render(out), nil
}

func render(t *stats.Table) string {
	var sb strings.Builder
	t.Fprint(&sb)
	return sb.String()
}
