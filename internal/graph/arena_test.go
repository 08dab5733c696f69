package graph

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/arena"
)

// TestArenaVariantsEquivalent proves the builders produce identical
// graphs with and without an arena — including on a warm arena, where
// the staging buffer is a recycled slice.
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
		verts := []int32{0, 3, 7, 11, 20, 33, 59}
		g1, r1 := g.InducedSubgraph(nil, verts)
		g2, r2 := g.InducedSubgraph(ar, verts)
		if !reflect.DeepEqual(g1, g2) || !reflect.DeepEqual(r1, r2) {
			t.Fatalf("round %d: InducedSubgraph diverged on the arena", round)
		}
	}
}
