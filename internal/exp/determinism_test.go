package exp

import "testing"

// The harness runs its cases on a worker pool; these tests pin the
// contract that parallel execution produces byte-identical output to
// any other run (results are always aggregated in index order).

func TestFigure2Deterministic(t *testing.T) {
	cfg := TinyConfig()
	a, err := NewSuite(cfg).Figure2()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSuite(cfg).Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("Figure2 differs between runs:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

func TestSuiteSharedCacheMatchesFresh(t *testing.T) {
	// A figure produced from a warm shared cache must equal one from
	// a fresh cache (memoization must not change results).
	cfg := TinyConfig()
	s := NewSuite(cfg)
	if _, err := s.Figure1(); err != nil { // warms the PATOH cases
		t.Fatal(err)
	}
	warm, err := s.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSuite(cfg).Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if warm != fresh {
		t.Fatalf("shared-cache Figure2 differs from fresh run")
	}
}

func TestTable1Deterministic(t *testing.T) {
	cfg := TinyConfig()
	a, err := NewSuite(cfg).Table1()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSuite(cfg).Table1()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("Table1 differs between runs")
	}
}

func TestAblationsRuns(t *testing.T) {
	cfg := TinyConfig()
	out, err := Ablations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"UG", "UWH", "UML", "UMC", "UMCA", "EMC"} {
		if !containsStr(out, want) {
			t.Fatalf("ablations output missing %q:\n%s", want, out)
		}
	}
	again, err := Ablations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Everything except the wall-clock mapTime column must be
	// deterministic.
	if stripLastColumn(out) != stripLastColumn(again) {
		t.Fatalf("ablations quality columns not deterministic:\n%s\n---\n%s", out, again)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func stripLastColumn(s string) string {
	var out []byte
	lineStart := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			line := s[lineStart:i]
			// Drop the final whitespace-separated field.
			end := len(line)
			for end > 0 && line[end-1] != ' ' && line[end-1] != '\t' {
				end--
			}
			out = append(out, line[:end]...)
			out = append(out, '\n')
			lineStart = i + 1
		}
	}
	return string(out)
}

func TestRegressionDeterministic(t *testing.T) {
	cfg := TinyConfig()
	a, err := NewSuite(cfg).Regression()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSuite(cfg).Regression()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("Regression differs between runs")
	}
}
