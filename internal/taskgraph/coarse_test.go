package taskgraph

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/arena"
	"repro/internal/ds"
	"repro/internal/graph"
)

// coarseOracle is the triple-staging builder graph.Contract and
// CoarseMessageGraph replaced, kept as the reference: every
// inter-group fine edge is staged in both directions — with its volume,
// or with weight one when messages is set — and graph.FromTriples
// merges and lays out the rows.
func coarseOracle(t *TaskGraph, group []int32, nGroups int, messages bool) *graph.Graph {
	var triples []ds.EdgeTriple
	for u := 0; u < t.G.N(); u++ {
		gu := group[u]
		for i := t.G.Xadj[u]; i < t.G.Xadj[u+1]; i++ {
			gv := group[t.G.Adj[i]]
			if gu == gv {
				continue
			}
			w := int64(1)
			if !messages {
				w = t.G.EdgeWeight(int(i))
			}
			triples = append(triples, ds.EdgeTriple{U: gu, V: gv, W: w}, ds.EdgeTriple{U: gv, V: gu, W: w})
		}
	}
	vw := make([]int64, nGroups)
	for u := 0; u < t.G.N(); u++ {
		vw[group[u]] += t.G.VertexWeight(u)
	}
	return graph.FromTriples(nGroups, triples, vw)
}

// checkCoarse builds both coarse variants of t over group every way the
// pipeline does — graph.Contract over a fresh and over a pooled
// symmetrization for the volume graph, CoarseMessageGraph with and
// without the arena for the message graph — and fails on any
// difference from the oracle.
func checkCoarse(t *testing.T, name string, tg *TaskGraph, group []int32, nGroups int, ar *arena.Arena) {
	t.Helper()
	want := coarseOracle(tg, group, nGroups, false)
	wantMsg := coarseOracle(tg, group, nGroups, true)
	for _, v := range []struct {
		what      string
		got, want *graph.Graph
	}{
		{"Contract over Symmetrize", graph.Contract(tg.G.Symmetrize(nil), group, nGroups, nil), want},
		{"Contract over the arena", graph.Contract(tg.G.Symmetrize(ar), group, nGroups, ar), want},
		{"CoarseMessageGraph", CoarseMessageGraph(nil, tg, group, nGroups), wantMsg},
		{"CoarseMessageGraph on the arena", CoarseMessageGraph(ar, tg, group, nGroups), wantMsg},
	} {
		if !reflect.DeepEqual(v.got, v.want) {
			t.Fatalf("%s: %s diverged from the triple-staging oracle\ngot  %+v\nwant %+v", name, v.what, v.got, v.want)
		}
	}
}

// randomTaskGraph returns a directed task graph on n tasks: m random
// edges one way only (self loops drop, repeats merge), random volumes
// and loads. Both directions of a pair, when drawn, carry unrelated
// volumes, so the graph is asymmetric in weight as well as shape.
func randomTaskGraph(rng *rand.Rand, n, m int) *TaskGraph {
	us, vs, ws := make([]int32, m), make([]int32, m), make([]int64, m)
	for i := range us {
		us[i], vs[i], ws[i] = int32(rng.Intn(n)), int32(rng.Intn(n)), 1+rng.Int63n(100)
	}
	vw := make([]int64, n)
	for i := range vw {
		vw[i] = 1 + rng.Int63n(20)
	}
	return &TaskGraph{G: graph.FromEdges(n, us, vs, ws, vw), K: n}
}

// TestCoarseGraphMatchesOracle checks the coarse volume graph
// (graph.Contract over the symmetrization) and CoarseMessageGraph
// against the triple-staging builder: random directed and symmetric
// task graphs, nil EW/VW, groupings with empty groups, identity
// groupings, and everything in one group, on a cold and a warm arena.
func TestCoarseGraphMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ar := arena.New()
	for round := 0; round < 30; round++ {
		n := 1 + rng.Intn(400)
		tg := randomTaskGraph(rng, n, rng.Intn(8*n+1))
		if round%3 == 0 {
			tg = &TaskGraph{G: graph.RandomConnected(n, 4*n, 60, int64(round)), K: n}
		}
		bare := &TaskGraph{G: &graph.Graph{Xadj: tg.G.Xadj, Adj: tg.G.Adj}, K: n}

		ng := 1 + rng.Intn(n)
		blocks := make([]int32, n)
		for v := range blocks {
			blocks[v] = int32(v * ng / n)
		}
		scattered := make([]int32, n)
		for v := range scattered {
			scattered[v] = int32(rng.Intn(ng))
		}
		// Only every third group id is used; the rest stay empty.
		sparse := make([]int32, n)
		for v := range sparse {
			sparse[v] = 3 * int32(rng.Intn(ng))
		}
		identity := make([]int32, n)
		for v := range identity {
			identity[v] = int32(v)
		}
		for _, g := range []struct {
			name  string
			group []int32
			ng    int
		}{
			{"blocks", blocks, ng},
			{"scattered", scattered, ng},
			{"empty groups", sparse, 3 * ng},
			{"identity", identity, n},
			{"one group", make([]int32, n), 1},
		} {
			checkCoarse(t, g.name, tg, g.group, g.ng, ar)
			checkCoarse(t, g.name+", nil EW and VW", bare, g.group, g.ng, ar)
		}
	}
}

// FuzzCoarseGraph draws a task graph and a grouping from the input and
// compares both coarse variants against the oracle. The first byte
// picks the task count n, the second the group count; the next n bytes
// are the tasks' groups (missing ones fall back to task mod groups)
// and every three bytes after them one directed edge (ends reduced mod
// n, a signed volume). An odd third byte drops the volumes and loads.
func FuzzCoarseGraph(f *testing.F) {
	f.Add([]byte{4, 2, 1, 0, 0, 1, 0, 1, 5, 1, 0, 7, 2, 3, 250, 3, 2, 1})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{3, 5, 9, 0, 4, 2, 0, 1, 0, 1, 2, 1, 2, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n, ng := 1+int(data[0]), 1+int(data[1]%32)
		bare := data[2]%2 == 1
		rest := data[3:]
		group := make([]int32, n)
		for v := range group {
			if v < len(rest) {
				group[v] = int32(int(rest[v]) % ng)
			} else {
				group[v] = int32(v % ng)
			}
		}
		rest = rest[min(n, len(rest)):]
		var us, vs []int32
		var ws []int64
		for ; len(rest) >= 3; rest = rest[3:] {
			us = append(us, int32(int(rest[0])%n))
			vs = append(vs, int32(int(rest[1])%n))
			ws = append(ws, int64(int8(rest[2])))
		}
		vw := make([]int64, n)
		for v := range vw {
			vw[v] = int64(v%7) + 1
		}
		g := graph.FromEdges(n, us, vs, ws, vw)
		if bare {
			g = &graph.Graph{Xadj: g.Xadj, Adj: g.Adj}
		}
		checkCoarse(t, "fuzz", &TaskGraph{G: g, K: n}, group, ng, nil)
	})
}
