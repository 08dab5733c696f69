package stats

import (
	"math"
	"strings"
	"testing"
)

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 100}); math.Abs(g-10) > 1e-12 {
		t.Fatalf("GeoMean = %g, want 10", g)
	}
	if g := GeoMean([]float64{2, 0, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("GeoMean skipping zero = %g, want 4", g)
	}
	if !math.IsNaN(GeoMean(nil)) {
		t.Fatal("empty GeoMean should be NaN")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "demo", Headers: []string{"name", "value"}}
	tab.AddRow("alpha", "1.00")
	tab.AddRow("b", "22.50")
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "alpha") {
		t.Fatalf("table output missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	// Columns aligned: 'value' header starts at same offset in all rows.
	idx := strings.Index(lines[1], "value")
	if !strings.HasPrefix(lines[3][idx:], "1.00") {
		t.Fatalf("misaligned table:\n%s", out)
	}
}

func TestF(t *testing.T) {
	if F(1.23456) != "1.235" || F2(1.23456) != "1.23" {
		t.Fatal("float formatting helpers wrong")
	}
}
