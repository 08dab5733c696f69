// Package stats provides the aggregation and reporting helpers the
// experiment harness uses: geometric means (the paper reports
// geometric means throughout §IV) and fixed-width ASCII tables shaped
// like the paper's figures.
package stats

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// GeoMean returns the geometric mean of xs (zero/negative entries are
// skipped; empty input returns NaN).
func GeoMean(xs []float64) float64 {
	var logSum float64
	n := 0
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		logSum += math.Log(x)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(logSum / float64(n))
}

// Table renders aligned fixed-width text tables.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// Fprint writes the table.
func (t *Table) Fprint(w io.Writer) {
	cols := len(t.Headers)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(cells []string) {
		for i, c := range cells {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.rows {
		measure(r)
	}
	if t.Title != "" {
		fmt.Fprintln(w, t.Title)
	}
	line := func(cells []string) {
		var sb strings.Builder
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(fmt.Sprintf("%-*s", widths[i], c))
		}
		fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	}
	line(t.Headers)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// F formats a float with 3 decimals (table cells).
func F(x float64) string { return fmt.Sprintf("%.3f", x) }

// F2 formats a float with 2 decimals.
func F2(x float64) string { return fmt.Sprintf("%.2f", x) }
