package partition

import (
	"math/rand"
	"testing"

	"repro/internal/arena"
	"repro/internal/graph"
)

// randomSymmetric returns a symmetric graph on n vertices with
// parallel edges, isolated vertices and random vertex weights: m
// random directed edges, symmetrized.
func randomSymmetric(rng *rand.Rand, n, m int) *graph.Graph {
	var us, vs []int32
	var ws []int64
	for i := 0; i < m; i++ {
		us = append(us, int32(rng.Intn(n)))
		vs = append(vs, int32(rng.Intn(n)))
		ws = append(ws, 1+rng.Int63n(50))
	}
	vw := make([]int64, n)
	for i := range vw {
		vw[i] = 1 + rng.Int63n(4)
	}
	return graph.FromEdges(n, us, vs, ws, vw).Symmetrize(nil)
}

// TestCoarsenLevelsStaySymmetric checks the precondition
// graph.Contract's transposed layout relies on: every level of the
// hierarchy is symmetric and structurally valid.
func TestCoarsenLevelsStaySymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 12; round++ {
		n := 200 + rng.Intn(800)
		g := randomSymmetric(rng, n, 5*n)
		opt := Options{Matching: Matching(round % 2), CoarsenTo: 8, Arena: arena.New()}.withDefaults()
		levels := coarsen(g, opt, rng)
		if len(levels) < 2 {
			t.Fatalf("round %d: n=%d did not coarsen", round, n)
		}
		for li, lv := range levels {
			if err := lv.g.Validate(); err != nil {
				t.Fatalf("round %d level %d: %v", round, li, err)
			}
			if !lv.g.IsSymmetric() {
				t.Fatalf("round %d level %d (n=%d): not symmetric", round, li, lv.g.N())
			}
		}
	}
}
