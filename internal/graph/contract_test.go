package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/arena"
)

// contractOracle is the contraction Contract must reproduce, built the
// plain way: sum every inter-cluster edge into a per-row map, then lay
// each row out in ascending neighbour order.
func contractOracle(g *Graph, cmap []int32, nc int) *Graph {
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
	out := &Graph{Xadj: make([]int32, nc+1), Adj: []int32{}, EW: []int64{}, VW: vw}
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
func randomSymmetric(rng *rand.Rand, n, m int) *Graph {
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
	return FromEdges(n, us, vs, ws, vw).Symmetrize(nil)
}

// randomMatching pairs each vertex, in random order, with a random
// unmatched neighbour, and numbers the pairs and leftover singletons
// in vertex order: the shape of a coarsening level's cluster map.
func randomMatching(rng *rand.Rand, g *Graph) ([]int32, int) {
	n := g.N()
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	for _, vi := range rng.Perm(n) {
		v := int32(vi)
		if match[v] >= 0 {
			continue
		}
		match[v] = v
		var free []int32
		for _, u := range g.Neighbors(vi) {
			if match[u] < 0 {
				free = append(free, u)
			}
		}
		if len(free) > 0 {
			u := free[rng.Intn(len(free))]
			match[v], match[u] = u, v
		}
	}
	cmap := make([]int32, n)
	for i := range cmap {
		cmap[i] = -1
	}
	nc := int32(0)
	for v := 0; v < n; v++ {
		if cmap[v] < 0 {
			cmap[v], cmap[match[v]] = nc, nc
			nc++
		}
	}
	return cmap, int(nc)
}

// TestContractMatchesOracle checks Contract against the plain
// contraction on random symmetric graphs, for matching-shaped and
// arbitrary cluster maps (the latter with empty clusters), on a cold
// and a warm arena.
func TestContractMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ar := arena.New()
	for round := 0; round < 40; round++ {
		n := 1 + rng.Intn(300)
		g := randomSymmetric(rng, n, rng.Intn(6*n+1))
		if round%4 == 0 {
			g = RandomConnected(n, 3*n, 100, int64(round))
		}
		type coarse struct {
			name string
			cmap []int32
			nc   int
		}
		cmap, nc := randomMatching(rng, g)
		cases := []coarse{{"matching", cmap, nc}}
		nc = 1 + rng.Intn(n)
		cmap = make([]int32, n)
		for v := range cmap {
			cmap[v] = int32(rng.Intn(nc))
		}
		cases = append(cases, coarse{"clusters", cmap, nc})
		// Clusters drawn from the even ids only: every odd one is empty.
		sparse := make([]int32, n)
		for v := range sparse {
			sparse[v] = 2 * int32(rng.Intn(nc))
		}
		cases = append(cases, coarse{"empty clusters", sparse, 2 * nc})
		for _, c := range cases {
			want := contractOracle(g, c.cmap, c.nc)
			for _, a := range []*arena.Arena{nil, ar} {
				got := Contract(g, c.cmap, c.nc, a)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d, %s (n=%d, nc=%d, arena %v): Contract diverged from the oracle\ngot  %+v\nwant %+v",
						round, c.name, n, c.nc, a != nil, got, want)
				}
			}
		}
	}
}

// TestContractRejectsAsymmetric: a directed input breaks the transposed
// layout, and Contract says so rather than return a wrong graph. The
// edges 0→1, 0→2, 2→0 stage rows of lengths 2, 0, 1 whose transposes
// have lengths 1, 1, 1: every write stays in bounds, so only the row
// check can catch it.
func TestContractRejectsAsymmetric(t *testing.T) {
	g := FromEdges(3, []int32{0, 0, 2}, []int32{1, 2, 0}, []int64{4, 5, 6}, nil)
	defer func() {
		if r := recover(); r != "graph: Contract of an asymmetric graph" {
			t.Fatalf("Contract of a directed graph: recovered %v", r)
		}
	}()
	Contract(g, []int32{0, 1, 2}, 3, nil)
}
