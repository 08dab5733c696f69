package graph

import (
	"repro/internal/arena"
	"repro/internal/ds"
)

// Contract builds the quotient of g over a cluster map: coarse vertex
// c holds the fine vertices v with cmap[v] == c, vertex weights are
// summed, parallel edges merged by summing weights, intra-cluster
// edges dropped, and every row lists its neighbours ascending, as
// FromTriples would. It is the one quotient builder: the partitioner's
// coarsening levels and the mapping pipeline's supertask graphs
// (§III-A) both come from it.
//
// g must be symmetric. The coarse graph then is too — it is its own
// transpose — which lets Contract sort nothing: it gathers each coarse
// row through a dense marker, in first-seen order, into staging
// borrowed from ar, then transposes the staged rows in ascending row
// order straight into exact-size arrays, which lays every row out
// ascending. Scratch comes from ar (nil allocates fresh). A directed
// input breaks the transposed layout, and Contract panics rather than
// return a wrong graph.
func Contract(g *Graph, cmap []int32, nc int, ar *arena.Arena) *Graph {
	n := g.N()
	vw := make([]int64, nc)
	for v := 0; v < n; v++ {
		vw[cmap[v]] += g.VertexWeight(v)
	}
	scratch := ar.Int32s(n + 2*nc + 1)
	defer ar.PutInt32s(scratch)
	// The fine members of each coarse vertex, ascending. mend doubles as
	// the fill cursor, so it ends holding each member list's end.
	mend, members, mark := scratch[:nc+1], scratch[nc+1:nc+1+n], scratch[nc+1+n:]
	for v := 0; v < n; v++ {
		mend[cmap[v]+1]++
	}
	for c := 0; c < nc; c++ {
		mend[c+1] += mend[c]
	}
	for v := 0; v < n; v++ {
		members[mend[cmap[v]]] = int32(v)
		mend[cmap[v]]++
	}
	// Gather the rows. mark[cv] is where cv's entry was last staged; it
	// belongs to the current row only if it lies at or past rowStart and
	// still names cv.
	staged := ar.Edges(g.M())
	defer ar.PutEdges(staged)
	xadj := make([]int32, nc+1)
	cnt, lo := int32(0), int32(0)
	for c := int32(0); int(c) < nc; c++ {
		rowStart := cnt
		for _, v := range members[lo:mend[c]] {
			for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
				cv := cmap[g.Adj[i]]
				if cv == c {
					continue
				}
				if s := mark[cv]; s >= rowStart && s < cnt && staged[s].V == cv {
					staged[s].W += g.EdgeWeight(int(i))
					continue
				}
				mark[cv] = cnt
				staged[cnt] = ds.EdgeTriple{V: cv, W: g.EdgeWeight(int(i))}
				cnt++
			}
		}
		lo = mend[c]
		xadj[c+1] = cnt
	}
	// Transpose: row c's entry (cv, w) becomes entry (c, w) of row cv.
	// By symmetry every row keeps its length and weights, and the rows
	// fill in ascending c.
	out := &Graph{Xadj: xadj, Adj: make([]int32, cnt), EW: make([]int64, cnt), VW: vw}
	cursor := mark
	copy(cursor, xadj[:nc])
	for c := 0; c < nc; c++ {
		for _, t := range staged[xadj[c]:xadj[c+1]] {
			p := cursor[t.V]
			cursor[t.V]++
			out.Adj[p] = int32(c)
			out.EW[p] = t.W
		}
	}
	for c := 0; c < nc; c++ {
		if cursor[c] != xadj[c+1] {
			panic("graph: Contract of an asymmetric graph")
		}
	}
	return out
}
