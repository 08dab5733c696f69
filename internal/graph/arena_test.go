package graph

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/arena"
)

// TestArenaVariantsEquivalent proves Symmetrize builds identical graphs
// with and without an arena — including on a warm arena, where the
// staging buffer is a recycled slice.
func TestArenaVariantsEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 60
	var us, vs []int32
	var ws []int64
	for i := 0; i < 400; i++ {
		us = append(us, int32(rng.Intn(n)))
		vs = append(vs, int32(rng.Intn(n)))
		ws = append(ws, int64(rng.Intn(9)+1))
	}
	ar := arena.New()
	for round := 0; round < 3; round++ { // round 0 cold, later rounds warm
		g := FromEdges(n, us, vs, ws, nil)
		if !reflect.DeepEqual(g.Symmetrize(nil), g.Symmetrize(ar)) {
			t.Fatalf("round %d: Symmetrize diverged on the arena", round)
		}
	}
}
