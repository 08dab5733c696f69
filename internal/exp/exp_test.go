package exp

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/partitioners"

	topomap "repro"
)

// The experiment tests run at Tiny scale; they validate that every
// figure/table pipeline executes end to end and emits the expected
// rows, and spot-check the headline qualitative shapes.

func TestFigure1Tiny(t *testing.T) {
	cfg := TinyConfig()
	out, err := NewSuite(cfg).Figure1()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range partitioners.All() {
		if !strings.Contains(out, string(p)) {
			t.Fatalf("figure 1 missing partitioner %s:\n%s", p, out)
		}
	}
	// PATOH normalized to itself must produce 1.000 rows.
	if !selfNormalizedRow(out, "PATOH", 4) {
		t.Fatalf("PATOH row not self-normalized:\n%s", out)
	}
}

// selfNormalizedRow reports whether a row for the given label carries
// n cells equal to 1.000 (robust to column widths).
func selfNormalizedRow(out, label string, n int) bool {
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, label) {
			continue
		}
		if strings.Count(line, "1.000") == n {
			return true
		}
	}
	return false
}

func TestFigure2Tiny(t *testing.T) {
	cfg := TinyConfig()
	out, err := NewSuite(cfg).Figure2()
	if err != nil {
		t.Fatal(err)
	}
	for _, mp := range topomap.Mappers() {
		if !strings.Contains(out, string(mp)) {
			t.Fatalf("figure 2 missing mapper %s:\n%s", mp, out)
		}
	}
	if !selfNormalizedRow(out, "DEF", 4) {
		t.Fatalf("DEF row not self-normalized:\n%s", out)
	}
}

func TestFigure3Tiny(t *testing.T) {
	cfg := TinyConfig()
	out, err := NewSuite(cfg).Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "UG") || !strings.Contains(out, "TMAP") {
		t.Fatalf("figure 3 incomplete:\n%s", out)
	}
}

func TestFigure4Tiny(t *testing.T) {
	cfg := TinyConfig()
	out, err := NewSuite(cfg).Figure4("a")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "CommTime") {
		t.Fatalf("figure 4 missing time column:\n%s", out)
	}
	if _, err := NewSuite(cfg).Figure4("c"); err == nil {
		t.Fatal("want error for unknown variant")
	}
}

func TestFigure5Tiny(t *testing.T) {
	cfg := TinyConfig()
	out, err := NewSuite(cfg).Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "TpetraTime") {
		t.Fatalf("figure 5 missing time column:\n%s", out)
	}
}

func TestTable1Tiny(t *testing.T) {
	cfg := TinyConfig()
	out, err := NewSuite(cfg).Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"cagelike SpMV", "cagelike Comm", "rgg Comm", "Gmean"} {
		if !strings.Contains(out, label) {
			t.Fatalf("table 1 missing %q:\n%s", label, out)
		}
	}
}

func TestRegressionTiny(t *testing.T) {
	cfg := TinyConfig()
	out, err := NewSuite(cfg).Regression()
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range regressionColumns {
		if !strings.Contains(out, col) {
			t.Fatalf("regression missing column %s:\n%s", col, out)
		}
	}
	if !strings.Contains(out, "SpMV") || !strings.Contains(out, "communication-only") {
		t.Fatalf("regression missing a workload:\n%s", out)
	}
}

func TestSuiteSharesCache(t *testing.T) {
	s := NewSuite(TinyConfig())
	if _, err := s.Figure2(); err != nil {
		t.Fatal(err)
	}
	cached := len(s.c.tgs)
	if cached == 0 {
		t.Fatal("suite cached nothing")
	}
	// Figure 3 uses the same PATOH task graphs: the cache must not
	// need any new partitioning runs.
	if _, err := s.Figure3(); err != nil {
		t.Fatal(err)
	}
	if len(s.c.tgs) != cached {
		t.Fatalf("figure 3 re-partitioned: %d -> %d cache entries", cached, len(s.c.tgs))
	}
}

func TestConfigs(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), TinyConfig(), PaperConfig()} {
		if cfg.ProcsPerNode != 16 {
			t.Fatalf("paper uses 16 procs/node, config has %d", cfg.ProcsPerNode)
		}
		if len(cfg.PartCounts) == 0 || cfg.Reps <= 0 || cfg.Allocations <= 0 {
			t.Fatalf("degenerate config: %+v", cfg)
		}
		topo := cfg.torus()
		maxNodes := cfg.PartCounts[len(cfg.PartCounts)-1] / cfg.ProcsPerNode
		if maxNodes > topo.Nodes() {
			t.Fatalf("config needs %d nodes but machine has %d", maxNodes, topo.Nodes())
		}
	}
	if len(PaperConfig().matrices()) != 25 {
		t.Fatal("paper config should use the whole dataset")
	}
}

func TestMetricValuePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown metric")
		}
	}()
	metricValue(metrics.MapMetrics{}, "NOPE")
}
