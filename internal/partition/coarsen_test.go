package partition

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/arena"
	"repro/internal/graph"
)

// contractOracle is the contraction contract must reproduce, built the
// plain way: sum every inter-cluster edge into a per-row map, then lay
// each row out in ascending neighbour order.
func contractOracle(g *graph.Graph, cmap []int32, nc int) *graph.Graph {
	vw := make([]int64, nc)
	rows := make([]map[int32]int64, nc)
	for c := range rows {
		rows[c] = map[int32]int64{}
	}
	for u := 0; u < g.N(); u++ {
		vw[cmap[u]] += g.VertexWeight(u)
		for i := g.Xadj[u]; i < g.Xadj[u+1]; i++ {
			if cu, cv := cmap[u], cmap[g.Adj[i]]; cu != cv {
				rows[cu][cv] += g.EdgeWeight(int(i))
			}
		}
	}
	out := &graph.Graph{Xadj: make([]int32, nc+1), Adj: []int32{}, EW: []int64{}, VW: vw}
	for c, row := range rows {
		nbrs := make([]int32, 0, len(row))
		for v := range row {
			nbrs = append(nbrs, v)
		}
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
		for _, v := range nbrs {
			out.Adj = append(out.Adj, v)
			out.EW = append(out.EW, row[v])
		}
		out.Xadj[c+1] = int32(len(out.Adj))
	}
	return out
}

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
	return graph.FromEdges(n, us, vs, ws, vw).Symmetrize()
}

// TestContractMatchesOracle checks contract against the plain
// contraction on random symmetric graphs, for both matching policies
// and for arbitrary (non-matching) cluster maps, on a cold and a warm
// arena.
func TestContractMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ar := arena.New()
	for round := 0; round < 40; round++ {
		n := 1 + rng.Intn(300)
		g := randomSymmetric(rng, n, rng.Intn(6*n+1))
		if round%4 == 0 {
			g = graph.RandomConnected(n, 3*n, 100, int64(round))
		}
		type coarse struct {
			name string
			cmap []int32
			nc   int
		}
		var cases []coarse
		for _, policy := range []Matching{HeavyEdge, RandomEdge} {
			cmap, nc := matchVertices(g, policy, rng)
			cases = append(cases, coarse{"matching", cmap, nc})
		}
		nc := 1 + rng.Intn(n)
		cmap := make([]int32, n)
		for v := range cmap {
			cmap[v] = int32(rng.Intn(nc))
		}
		cases = append(cases, coarse{"clusters", cmap, nc})
		for _, c := range cases {
			want := contractOracle(g, c.cmap, c.nc)
			for _, a := range []*arena.Arena{nil, ar} {
				got := contract(g, c.cmap, c.nc, a)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d, %s (n=%d, nc=%d, arena %v): contract diverged from the oracle\ngot  %+v\nwant %+v",
						round, c.name, n, c.nc, a != nil, got, want)
				}
			}
		}
	}
}

// TestCoarsenLevelsStaySymmetric checks the precondition contract's
// transposed layout relies on: every level of the hierarchy is
// symmetric and structurally valid.
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

// TestContractRejectsAsymmetric: a directed input breaks the transposed
// layout, and contract says so rather than return a wrong graph. The
// edges 0→1, 0→2, 2→0 stage rows of lengths 2, 0, 1 whose transposes
// have lengths 1, 1, 1: every write stays in bounds, so only the row
// check can catch it.
func TestContractRejectsAsymmetric(t *testing.T) {
	g := graph.FromEdges(3, []int32{0, 0, 2}, []int32{1, 2, 0}, []int64{4, 5, 6}, nil)
	defer func() {
		if r := recover(); r != "partition: contract of an asymmetric graph" {
			t.Fatalf("contract of a directed graph: recovered %v", r)
		}
	}()
	contract(g, []int32{0, 1, 2}, 3, nil)
}
