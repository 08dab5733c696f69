package exp

import (
	"fmt"
	"sort"

	"repro/internal/gen"
	"repro/internal/nnls"
	"repro/internal/parallel"
	"repro/internal/partitioners"
	"repro/internal/stats"
)

// regressionColumns are the 14 covariates of the §IV-E analysis, in
// the paper's listing order: partitioning metrics, mapping metrics,
// and the node-level communication covariates.
var regressionColumns = []string{
	"MSV", "TV", "MSM", "TM",
	"WH", "TH", "MC", "MMC", "AC", "AMC",
	"ICV", "ICM", "MNRV", "MNRM",
}

// Regression regenerates the §IV-E analysis: it collects the
// communication-only and SpMV executions of the cagelike graphs over
// all partitioners, mappers and two allocations, standardizes the 14
// metric columns, solves the nonnegative least squares problem for
// the execution time, and reports the nonzero coefficients plus the
// Pearson correlations with the dominant metric.
func (s *Suite) Regression() (string, error) {
	out := ""
	for _, kind := range []string{"comm", "spmv"} {
		txt, err := s.regressOne(kind)
		if err != nil {
			return "", err
		}
		out += txt + "\n"
	}
	return out, nil
}

func (s *Suite) regressOne(kind string) (string, error) {
	c := s.c
	cfg := s.cfg
	topo := cfg.torus()
	k := cfg.PartCounts[len(cfg.PartCounts)-1]
	nNodes := k / cfg.ProcsPerNode
	scale := 4096.0
	iters := 500

	var rows [][]float64 // covariates per execution
	var times []float64
	type sample struct {
		rows  [][]float64
		times []float64
	}
	for ai := 0; ai < 2; ai++ {
		a, err := c.allocOf(topo, nNodes, cfg.Seed+int64(ai)*101)
		if err != nil {
			return "", err
		}
		// One parallel unit per partitioner; samples are appended in
		// partitioner order afterwards, identical to a serial run.
		parts := partitioners.All()
		samples, err := parallel.Map(len(parts), 0, func(pi int) (sample, error) {
			tg, err := c.taskGraphOf(gen.Cagelike, parts[pi], k)
			if err == errSkip {
				return sample{}, nil
			}
			if err != nil {
				return sample{}, err
			}
			pm := tg.PartitionMetrics()
			var sm sample
			for _, mp := range commMappers() {
				res, _, err := c.mapCase(mp, tg, topo, a, cfg.Seed)
				if err != nil {
					return sample{}, err
				}
				m := res.Metrics
				sm.rows = append(sm.rows, []float64{
					float64(pm.MSV), float64(pm.TV), float64(pm.MSM), float64(pm.TM),
					float64(m.WH), float64(m.TH), m.MC, float64(m.MMC), m.AC, m.AMC,
					float64(m.ICV), float64(m.ICM), float64(m.MNRV), float64(m.MNRM),
				})
				t, _ := c.simulate(kind, tg, topo, res.Placement(), scale, iters)
				sm.times = append(sm.times, t)
			}
			return sm, nil
		})
		if err != nil {
			return "", err
		}
		for _, sm := range samples {
			rows = append(rows, sm.rows...)
			times = append(times, sm.times...)
		}
		c.progressf("  regression %s: allocation %d done\n", kind, ai)
	}
	if len(rows) == 0 {
		return "", fmt.Errorf("exp: no regression samples")
	}

	// Standardize columns (and the target, as lsqnonneg users do to
	// make coefficients comparable).
	nCols := len(regressionColumns)
	cols := make([][]float64, nCols)
	for j := 0; j < nCols; j++ {
		cols[j] = make([]float64, len(rows))
		for i := range rows {
			cols[j][i] = rows[i][j]
		}
	}
	// Keep raw copies for the correlation report.
	raw := make([][]float64, nCols)
	for j := range cols {
		raw[j] = append([]float64(nil), cols[j]...)
	}
	nnls.Standardize(cols)
	A := make([][]float64, len(rows))
	for i := range rows {
		A[i] = make([]float64, nCols)
		for j := 0; j < nCols; j++ {
			A[i][j] = cols[j][i]
		}
	}
	target := append([]float64(nil), times...)
	nnls.Standardize([][]float64{target})
	coef, err := nnls.Solve(A, target, 0)
	if err != nil {
		return "", err
	}

	label := "communication-only"
	if kind == "spmv" {
		label = "SpMV"
	}
	tab := &stats.Table{
		Title:   fmt.Sprintf("Regression (§IV-E), %s, %d samples: NNLS coefficients and Pearson r", label, len(rows)),
		Headers: []string{"metric", "coefficient", "pearson-r(time)"},
	}
	type item struct {
		name string
		c    float64
		r    float64
	}
	var items []item
	for j, name := range regressionColumns {
		items = append(items, item{name, coef[j], nnls.Pearson(raw[j], times)})
	}
	sort.Slice(items, func(a, b int) bool { return items[a].c > items[b].c })
	for _, it := range items {
		tab.AddRow(it.name, fmt.Sprintf("%.4f", it.c), fmt.Sprintf("%.3f", it.r))
	}
	return render(tab), nil
}
