package exp

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/gen"
)

// Medium-scale shape check for the UMMC message-graph fix.
func TestShapeMedium(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-scale shape check")
	}
	cfg := Config{
		Tier:         gen.Small,
		TorusDims:    [3]int{8, 8, 8},
		ProcsPerNode: 16,
		PartCounts:   []int{1024},
		Matrices:     []string{"mesh3d-a", "struct-a"},
		Allocations:  2,
		Reps:         3,
		Seed:         1,
	}
	out, err := NewSuite(cfg).Figure2()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out)
	// The headline qualitative shapes of Figure 2 (everything is
	// deterministic for fixed seeds, so these are stable):
	// UWH clearly improves WH over DEF; UMC clearly improves MC;
	// UMMC clearly improves MMC.
	checks := []struct {
		mapper string
		col    int // 0=TH 1=WH 2=MMC 3=MC
		max    float64
	}{
		{"UWH", 1, 0.95},
		{"UMC", 3, 0.80},
		{"UMMC", 2, 0.90},
	}
	for _, c := range checks {
		v, ok := figure2Cell(out, c.mapper, c.col)
		if !ok {
			t.Fatalf("mapper %s missing from output", c.mapper)
		}
		if v > c.max {
			t.Errorf("%s column %d = %.3f, want <= %.2f\n%s", c.mapper, c.col, v, c.max, out)
		}
	}
}

// figure2Cell extracts a normalized metric cell from the rendered
// Figure 2 table.
func figure2Cell(out, mapper string, col int) (float64, bool) {
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 6 && fields[1] == mapper {
			v, err := strconv.ParseFloat(fields[2+col], 64)
			if err == nil {
				return v, true
			}
		}
	}
	return 0, false
}
