// Package graph provides the compressed sparse row (CSR) graph type
// shared by the partitioners, the task-graph builder and the mapping
// algorithms, together with the traversals they rely on.
package graph

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/arena"
	"repro/internal/ds"
)

// Graph is a weighted graph in CSR form. Vertices are 0..N()-1; the
// neighbours of v are Adj[Xadj[v]:Xadj[v+1]] with matching edge weights
// in EW. VW holds vertex weights (computation loads).
//
// A Graph may represent a directed or an undirected (symmetric) graph;
// the partitioning and mapping algorithms require symmetric inputs and
// the builders below provide symmetrization.
type Graph struct {
	Xadj []int32 // length N()+1
	Adj  []int32 // length M() (directed edge count)
	EW   []int64 // edge weights, same length as Adj (nil means unit)
	VW   []int64 // vertex weights, length N() (nil means unit)
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.Xadj) - 1 }

// M returns the number of stored (directed) edges.
func (g *Graph) M() int { return len(g.Adj) }

// Degree returns the out-degree of v.
func (g *Graph) Degree(v int) int { return int(g.Xadj[v+1] - g.Xadj[v]) }

// Neighbors returns the adjacency slice of v; the caller must not
// mutate it.
func (g *Graph) Neighbors(v int) []int32 { return g.Adj[g.Xadj[v]:g.Xadj[v+1]] }

// Weights returns the edge-weight slice aligned with Neighbors(v).
func (g *Graph) Weights(v int) []int64 { return g.EW[g.Xadj[v]:g.Xadj[v+1]] }

// VertexWeight returns VW[v], defaulting to 1 when VW is nil.
func (g *Graph) VertexWeight(v int) int64 {
	if g.VW == nil {
		return 1
	}
	return g.VW[v]
}

// EdgeWeight returns the weight of the i-th stored edge, defaulting to
// 1 when EW is nil.
func (g *Graph) EdgeWeight(i int) int64 {
	if g.EW == nil {
		return 1
	}
	return g.EW[i]
}

// TotalVertexWeight returns the sum of all vertex weights.
func (g *Graph) TotalVertexWeight() int64 {
	if g.VW == nil {
		return int64(g.N())
	}
	var s int64
	for _, w := range g.VW {
		s += w
	}
	return s
}

// Validate checks structural invariants and returns a descriptive
// error when one fails. It is used by tests and the file loaders.
func (g *Graph) Validate() error {
	if len(g.Xadj) == 0 {
		return fmt.Errorf("graph: empty Xadj")
	}
	if g.Xadj[0] != 0 {
		return fmt.Errorf("graph: Xadj[0] = %d, want 0", g.Xadj[0])
	}
	n := g.N()
	for v := 0; v < n; v++ {
		if g.Xadj[v+1] < g.Xadj[v] {
			return fmt.Errorf("graph: Xadj not monotone at %d", v)
		}
	}
	if int(g.Xadj[n]) != len(g.Adj) {
		return fmt.Errorf("graph: Xadj[n]=%d, len(Adj)=%d", g.Xadj[n], len(g.Adj))
	}
	if g.EW != nil && len(g.EW) != len(g.Adj) {
		return fmt.Errorf("graph: len(EW)=%d, len(Adj)=%d", len(g.EW), len(g.Adj))
	}
	if g.VW != nil && len(g.VW) != n {
		return fmt.Errorf("graph: len(VW)=%d, n=%d", len(g.VW), n)
	}
	for i, u := range g.Adj {
		if u < 0 || int(u) >= n {
			return fmt.Errorf("graph: Adj[%d]=%d out of range [0,%d)", i, u, n)
		}
	}
	return nil
}

// IsSymmetric reports whether for every edge (u,v,w) the edge (v,u,w)
// is also present.
func (g *Graph) IsSymmetric() bool {
	type key struct{ u, v int32 }
	seen := make(map[key]int64, g.M())
	for u := 0; u < g.N(); u++ {
		for i := g.Xadj[u]; i < g.Xadj[u+1]; i++ {
			seen[key{int32(u), g.Adj[i]}] += g.EdgeWeight(int(i))
		}
	}
	for k, w := range seen {
		if seen[key{k.v, k.u}] != w {
			return false
		}
	}
	return true
}

// HasEdge reports whether the directed edge (u,v) is stored, using a
// linear scan of u's adjacency.
func (g *Graph) HasEdge(u, v int) bool {
	for _, w := range g.Neighbors(u) {
		if int(w) == v {
			return true
		}
	}
	return false
}

// FromEdges builds a CSR graph with n vertices from a directed edge
// list. Parallel edges are merged by summing weights; self loops are
// dropped. vw may be nil for unit vertex weights.
func FromEdges(n int, us, vs []int32, ws []int64, vw []int64) *Graph {
	if len(us) != len(vs) || (ws != nil && len(ws) != len(us)) {
		panic("graph: FromEdges length mismatch")
	}
	triples := make([]ds.EdgeTriple, 0, len(us))
	for i := range us {
		if us[i] == vs[i] {
			continue
		}
		w := int64(1)
		if ws != nil {
			w = ws[i]
		}
		triples = append(triples, ds.EdgeTriple{U: us[i], V: vs[i], W: w})
	}
	return FromTriples(n, triples, vw)
}

// insertionSortMax is the longest row FromTriples orders by insertion
// sort; longer rows (hub vertices) go to slices.SortFunc.
const insertionSortMax = 32

// FromTriples builds a CSR graph with n vertices from staged edge
// triples: rows ascending by neighbour, parallel edges merged by
// summing weights. Every U must lie in [0,n) and self loops must
// already be filtered out. triples is scratch: it is reordered and
// overwritten in place and never retained, so callers may pool it. vw
// is retained.
//
// The build is linear but for the per-row ordering. A counting pass
// sizes the rows in Xadj; the triples are then bucketed by U in place
// by cycle permutation, with no second staging buffer; each row is
// ordered by V and merged, and Adj and EW are allocated at the merged
// length.
func FromTriples(n int, triples []ds.EdgeTriple, vw []int64) *Graph {
	xadj := make([]int32, n+1)
	for _, t := range triples {
		xadj[t.U+1]++
	}
	for v := 0; v < n; v++ {
		xadj[v+1] += xadj[v]
	}
	// Bucket by U. xadj[u] is row u's fill cursor: the row's slots below
	// it hold their final triples, and those from it on do not. A placed
	// triple is marked by complementing its U, so the scan skips it, and
	// each turn of the inner loop sends the triple at i to its row's
	// cursor and takes back the unplaced triple found there. Every turn
	// places one triple; when the cursor is i itself the cycle closes.
	for i := range triples {
		for triples[i].U >= 0 {
			t := triples[i]
			p := xadj[t.U]
			xadj[t.U]++
			triples[i] = triples[p]
			t.U = ^t.U
			triples[p] = t
		}
	}
	// Each cursor now sits at its row's end. Order and merge the rows,
	// compacting them to the front and rewriting xadj to the merged
	// offsets as the scan passes them.
	w, lo := int32(0), int32(0)
	for u := 0; u < n; u++ {
		hi := xadj[u]
		xadj[u] = w
		row := triples[lo:hi]
		sortByV(row)
		for _, t := range row {
			if w > xadj[u] && triples[w-1].V == t.V {
				triples[w-1].W += t.W
				continue
			}
			triples[w] = t
			w++
		}
		lo = hi
	}
	xadj[n] = w
	g := &Graph{
		Xadj: xadj,
		Adj:  make([]int32, w),
		EW:   make([]int64, w),
		VW:   vw,
	}
	for i, t := range triples[:w] {
		g.Adj[i] = t.V
		g.EW[i] = t.W
	}
	return g
}

// sortByV orders one row of triples by neighbour. Equal neighbours are
// merged afterwards, so their relative order never matters.
func sortByV(row []ds.EdgeTriple) {
	if len(row) > insertionSortMax {
		slices.SortFunc(row, func(a, b ds.EdgeTriple) int { return cmp.Compare(a.V, b.V) })
		return
	}
	for i := 1; i < len(row); i++ {
		t := row[i]
		j := i
		for ; j > 0 && row[j-1].V > t.V; j-- {
			row[j] = row[j-1]
		}
		row[j] = t
	}
}

// Symmetrize returns the undirected version of g: for every directed
// edge (u,v,w) the result has both (u,v) and (v,u) with weight equal to
// w(u,v)+w(v,u). Vertex weights are preserved. Self loops are dropped.
// This implements the symmetric-cost view c(t1,t2) the paper's mapping
// algorithms assume (WH is an undirected metric).
//
// The edge-staging triples FromTriples buckets and merges in place, the
// dominant transient of graph construction, come from the arena and
// return to it; the CSR arrays escape into the result and stay fresh.
// A nil arena allocates fresh, and both build identical graphs.
func (g *Graph) Symmetrize(a *arena.Arena) *Graph {
	triples := a.Edges(2 * g.M())
	cnt := 0
	for u := 0; u < g.N(); u++ {
		for i := g.Xadj[u]; i < g.Xadj[u+1]; i++ {
			v := g.Adj[i]
			if int32(u) == v {
				continue
			}
			w := g.EdgeWeight(int(i))
			triples[cnt] = ds.EdgeTriple{U: int32(u), V: v, W: w}
			triples[cnt+1] = ds.EdgeTriple{U: v, V: int32(u), W: w}
			cnt += 2
		}
	}
	var vw []int64
	if g.VW != nil {
		vw = append([]int64(nil), g.VW...)
	}
	res := FromTriples(g.N(), triples[:cnt], vw)
	a.PutEdges(triples)
	return res
}

// InducedSubgraph returns the subgraph on the given vertices (in the
// given order) plus the mapping from old ids to new ids (-1 when
// excluded). Edges with an excluded endpoint are dropped. The staging
// triples come from the arena as in Symmetrize; the returned graph and
// remap stay fresh.
func (g *Graph) InducedSubgraph(a *arena.Arena, vertices []int32) (*Graph, []int32) {
	remap := make([]int32, g.N())
	for i := range remap {
		remap[i] = -1
	}
	for i, v := range vertices {
		remap[v] = int32(i)
	}
	bound := 0
	for _, v := range vertices {
		bound += g.Degree(int(v))
	}
	triples := a.Edges(bound)
	cnt := 0
	for _, v := range vertices {
		nv := remap[v]
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			u := remap[g.Adj[i]]
			if u >= 0 {
				triples[cnt] = ds.EdgeTriple{U: nv, V: u, W: g.EdgeWeight(int(i))}
				cnt++
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
	res := FromTriples(len(vertices), triples[:cnt], vw)
	a.PutEdges(triples)
	return res, remap
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Xadj: append([]int32(nil), g.Xadj...),
		Adj:  append([]int32(nil), g.Adj...),
	}
	if g.EW != nil {
		c.EW = append([]int64(nil), g.EW...)
	}
	if g.VW != nil {
		c.VW = append([]int64(nil), g.VW...)
	}
	return c
}

// TotalEdgeWeight returns the sum of stored edge weights (each
// undirected edge counted twice in a symmetric graph).
func (g *Graph) TotalEdgeWeight() int64 {
	if g.EW == nil {
		return int64(g.M())
	}
	var s int64
	for _, w := range g.EW {
		s += w
	}
	return s
}
