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
			if err := lv.G.Validate(); err != nil {
				t.Fatalf("round %d level %d: %v", round, li, err)
			}
			if !lv.G.IsSymmetric() {
				t.Fatalf("round %d level %d (n=%d): not symmetric", round, li, lv.G.N())
			}
		}
	}
}

// firstMatching returns the cluster map and cluster count of Coarsen's
// first matching of g: a target one below g.N() stops the hierarchy
// after its first level.
func firstMatching(t *testing.T, g *graph.Graph) ([]int32, int) {
	t.Helper()
	levels := Coarsen(g, g.N()-1, nil)
	if len(levels) != 2 {
		t.Fatalf("%d levels, want one matching level", len(levels)-1)
	}
	return levels[0].CMap, levels[1].G.N()
}

func TestHeavyEdgeMatchValid(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := graph.RandomConnected(64, 96, 50, seed)
		cmap, nc := firstMatching(t, g)
		if nc <= 0 || nc > g.N() {
			t.Fatalf("seed %d: bad coarse count %d", seed, nc)
		}
		sizes := make([]int, nc)
		for v, c := range cmap {
			if c < 0 || int(c) >= nc {
				t.Fatalf("seed %d: vertex %d has out-of-range cluster %d", seed, v, c)
			}
			sizes[c]++
		}
		for c, s := range sizes {
			if s < 1 || s > 2 {
				t.Fatalf("seed %d: cluster %d has %d members, want 1 or 2", seed, c, s)
			}
		}
		// Matched pairs must share an edge.
		first := make([]int32, nc)
		for i := range first {
			first[i] = -1
		}
		for v := 0; v < g.N(); v++ {
			c := cmap[v]
			if first[c] < 0 {
				first[c] = int32(v)
			} else if !g.HasEdge(int(first[c]), v) {
				t.Fatalf("seed %d: cluster %d pairs non-adjacent %d,%d", seed, c, first[c], v)
			}
		}
	}
}

func TestHeavyEdgeMatchPrefersHeavyEdges(t *testing.T) {
	// Path 0-1-2-3 with a heavy middle edge: 1 must match 2.
	g := graph.FromEdges(4,
		[]int32{0, 1, 2}, []int32{1, 2, 3}, []int64{1, 100, 1}, nil).Symmetrize(nil)
	cmap, _ := firstMatching(t, g)
	if cmap[1] != cmap[2] {
		t.Fatalf("heavy edge 1-2 not contracted: cmap=%v", cmap)
	}
	if cmap[0] == cmap[1] || cmap[3] == cmap[2] {
		t.Fatalf("light edges contracted over heavy one: cmap=%v", cmap)
	}
}
