package partition

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arena"
	"repro/internal/ds"
	"repro/internal/graph"
)

// cutOf is the oracle for the cut growBisection tracks: the weight of
// the edges whose endpoints lie on different sides, each undirected
// edge counted once, recomputed from scratch.
func cutOf(g *graph.Graph, side []int8) int64 {
	var cut int64
	for u := 0; u < g.N(); u++ {
		for i := g.Xadj[u]; i < g.Xadj[u+1]; i++ {
			if side[g.Adj[i]] != side[u] {
				cut += g.EdgeWeight(int(i))
			}
		}
	}
	return cut / 2
}

// withSelfLoops returns g with a self loop of weight 1+v%5 added to
// every third vertex v, each row kept ascending.
func withSelfLoops(g *graph.Graph) *graph.Graph {
	out := &graph.Graph{Xadj: make([]int32, 1, g.N()+1), VW: g.VW}
	for v := 0; v < g.N(); v++ {
		adj, ew := g.Neighbors(v), g.Weights(v)
		if v%3 == 0 {
			at, _ := slices.BinarySearch(adj, int32(v))
			adj = slices.Insert(slices.Clone(adj), at, int32(v))
			ew = slices.Insert(slices.Clone(ew), at, int64(1+v%5))
		}
		out.Adj = append(out.Adj, adj...)
		out.EW = append(out.EW, ew...)
		out.Xadj = append(out.Xadj, int32(len(out.Adj)))
	}
	return out
}

// TestGrowBisectionTracksWeightAndCut: the part-0 weight and cut that
// growBisection reports equal sideWeights and the cutOf oracle over
// the side vector it returns, on symmetric graphs of several
// components with isolated vertices, with and without self loops, for
// targets that make part 0 empty, small, half and nearly everything.
func TestGrowBisectionTracksWeightAndCut(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var graphs []*graph.Graph
	for round := 0; round < 12; round++ {
		n := 20 + rng.Intn(300)
		graphs = append(graphs, randomSymmetric(rng, n, n+rng.Intn(3*n)))
	}
	graphs = append(graphs, componentsGraph(rand.New(rand.NewSource(22))))
	for _, g := range slices.Clone(graphs) {
		graphs = append(graphs, withSelfLoops(g))
	}
	opt := Options{Arena: arena.New()}.withDefaults()
	for gi, g := range graphs {
		total := g.TotalVertexWeight()
		for _, tw := range [][2]int64{{0, 10}, {1, 9}, {1, 1}, {9, 1}, {total, 1}} {
			for run := 0; run < 3; run++ {
				side, w0, cut := growBisection(g, tw, total, opt, rng)
				if want := sideWeights(g, side); w0 != want[0] {
					t.Fatalf("graph %d tw %v run %d: w0 %d, sideWeights %v", gi, tw, run, w0, want)
				}
				if want := cutOf(g, side); cut != want {
					t.Fatalf("graph %d tw %v run %d: cut %d, cutOf %d", gi, tw, run, cut, want)
				}
				opt.Arena.PutInt8s(side)
			}
		}
	}
}

// inducedSubgraph is the oracle for SplitSides: the subgraph of g on
// the given vertices, in the given order, built by staging its edges
// and handing them to graph.FromTriples, plus the map from g's ids to
// the subgraph's (-1 when excluded). Edges with an excluded endpoint
// are dropped.
func inducedSubgraph(g *graph.Graph, vertices []int32) (*graph.Graph, []int32) {
	remap := make([]int32, g.N())
	for i := range remap {
		remap[i] = -1
	}
	for i, v := range vertices {
		remap[v] = int32(i)
	}
	var triples []ds.EdgeTriple
	for _, v := range vertices {
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			if u := remap[g.Adj[i]]; u >= 0 {
				triples = append(triples, ds.EdgeTriple{U: remap[v], V: u, W: g.EdgeWeight(int(i))})
			}
		}
	}
	var vw []int64
	if g.VW != nil {
		vw = make([]int64, len(vertices))
		for i, v := range vertices {
			vw[i] = g.VW[v]
		}
	}
	return graph.FromTriples(len(vertices), triples, vw), remap
}

func TestInducedSubgraph(t *testing.T) {
	g := graph.Grid2D(3, 3)
	// Take the first row: vertices 0,1,2 form a path.
	sub, remap := inducedSubgraph(g, []int32{0, 1, 2})
	if sub.N() != 3 || sub.M() != 4 {
		t.Fatalf("sub N=%d M=%d, want 3,4", sub.N(), sub.M())
	}
	if remap[0] != 0 || remap[1] != 1 || remap[2] != 2 || remap[3] != -1 {
		t.Fatalf("remap wrong: %v", remap[:4])
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) || sub.HasEdge(0, 2) {
		t.Fatal("subgraph edges wrong")
	}
}

// FuzzSplitSides checks the one-pass split against the staging
// builder it replaced: for any canonical CSR (directed or not, with or
// without vertex weights) and any side vector, both halves equal
// inducedSubgraph of that side's ascending id list in Xadj, Adj, EW
// and VW, down to whether VW is nil. `make fuzz-smoke` runs it.
func FuzzSplitSides(f *testing.F) {
	f.Add(uint8(0), []byte{}, []byte{}, false)
	f.Add(uint8(6), []byte{0, 1, 3, 1, 2, 4, 2, 0, 5, 5, 4, 1}, []byte{0, 1, 1, 0}, true)
	f.Add(uint8(9), []byte{1, 1, 9, 3, 8, 2, 8, 3, 2, 4, 7, 7, 7, 4, 7}, []byte{1}, false)
	f.Add(uint8(40), []byte("the quick brown fox jumps over the lazy dog"), []byte{0, 0, 1, 0, 1, 1, 1}, true)
	f.Fuzz(func(t *testing.T, nb uint8, edges, sides []byte, weighted bool) {
		n := int(nb % 64)
		var us, vs []int32
		var ws []int64
		if n > 0 {
			for i := 0; i+2 < len(edges); i += 3 {
				us = append(us, int32(int(edges[i])%n))
				vs = append(vs, int32(int(edges[i+1])%n))
				ws = append(ws, 1+int64(edges[i+2]))
			}
		}
		var vw []int64
		if weighted {
			vw = make([]int64, n)
			for v := range vw {
				vw[v] = 1 + int64(v*7%5)
			}
		}
		g := graph.FromEdges(n, us, vs, ws, vw)
		side := make([]int8, n)
		var ids [2][]int32
		for v := range side {
			if len(sides) > 0 {
				side[v] = int8(sides[v%len(sides)] & 1)
			}
			ids[side[v]] = append(ids[side[v]], int32(v))
		}
		left, right := SplitSides(g, side, len(ids[0]), arena.New())
		for s, got := range []*graph.Graph{left, right} {
			want, _ := inducedSubgraph(g, ids[s])
			if !slices.Equal(got.Xadj, want.Xadj) || !slices.Equal(got.Adj, want.Adj) || !slices.Equal(got.EW, want.EW) {
				t.Fatalf("side %d: split {%v %v %v}, induced {%v %v %v}",
					s, got.Xadj, got.Adj, got.EW, want.Xadj, want.Adj, want.EW)
			}
			if (got.VW == nil) != (want.VW == nil) || !slices.Equal(got.VW, want.VW) {
				t.Fatalf("side %d: split VW %v, induced VW %v", s, got.VW, want.VW)
			}
		}
	})
}
