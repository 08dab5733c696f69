package partition

import (
	"math/rand"

	"repro/internal/arena"
	"repro/internal/ds"
	"repro/internal/graph"
)

// matchVertices computes a matching of g according to the policy and
// returns the coarse vertex id of every fine vertex plus the number
// of coarse vertices. Unmatched vertices map to singleton coarse
// vertices.
func matchVertices(g *graph.Graph, policy Matching, rng *rand.Rand) ([]int32, int) {
	n := g.N()
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(n)
	for _, vi := range order {
		v := int32(vi)
		if match[v] >= 0 {
			continue
		}
		var best int32 = -1
		switch policy {
		case HeavyEdge:
			var bestW int64 = -1
			for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
				u := g.Adj[i]
				if u == v || match[u] >= 0 {
					continue
				}
				if w := g.EdgeWeight(int(i)); w > bestW {
					bestW, best = w, u
				}
			}
		case RandomEdge:
			cnt := 0
			for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
				u := g.Adj[i]
				if u == v || match[u] >= 0 {
					continue
				}
				cnt++
				if rng.Intn(cnt) == 0 {
					best = u
				}
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = v
		} else {
			match[v] = v
		}
	}
	// Assign coarse ids.
	cmap := make([]int32, n)
	for i := range cmap {
		cmap[i] = -1
	}
	nc := int32(0)
	for v := 0; v < n; v++ {
		if cmap[v] >= 0 {
			continue
		}
		cmap[v] = nc
		if m := match[v]; m >= 0 && int(m) != v {
			cmap[m] = nc
		}
		nc++
	}
	return cmap, int(nc)
}

// contract builds the coarse graph for a coarse map: vertex weights
// are summed, parallel edges merged, intra-cluster edges dropped, and
// every row lists its neighbours ascending, as graph.FromTriples would.
//
// g must be symmetric. The coarse graph then is too — it is its own
// transpose — which lets contract sort nothing: it gathers each coarse
// row through a dense marker, in first-seen order, into staging
// borrowed from ar, then transposes the staged rows in ascending row
// order straight into exact-size arrays, which lays every row out
// ascending. Scratch comes from ar (nil allocates fresh).
func contract(g *graph.Graph, cmap []int32, nc int, ar *arena.Arena) *graph.Graph {
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
	out := &graph.Graph{Xadj: xadj, Adj: make([]int32, cnt), EW: make([]int64, cnt), VW: vw}
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
			panic("partition: contract of an asymmetric graph")
		}
	}
	return out
}

// level is one rung of the multilevel hierarchy.
type level struct {
	g    *graph.Graph
	cmap []int32 // fine vertex -> coarse vertex of the next level
}

// coarsen builds the hierarchy from fine to coarse, stopping when the
// graph is small enough or stops shrinking.
func coarsen(g *graph.Graph, opt Options, rng *rand.Rand) []level {
	levels := []level{{g: g}}
	cur := g
	for cur.N() > opt.CoarsenTo {
		cmap, nc := matchVertices(cur, opt.Matching, rng)
		if float64(nc) > 0.95*float64(cur.N()) {
			break // diminishing returns (star-like graphs)
		}
		next := contract(cur, cmap, nc, opt.Arena)
		levels[len(levels)-1].cmap = cmap
		levels = append(levels, level{g: next})
		cur = next
	}
	return levels
}
