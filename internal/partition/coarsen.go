package partition

import (
	"cmp"
	"math/rand"
	"slices"

	"repro/internal/arena"
	"repro/internal/graph"
)

// This file is the one graph reduction of every multilevel mapper. A
// hierarchy is built by one loop, hierarchy; the partitioner's coarsen
// and the multilevel mapper's Coarsen differ only in the order in
// which a level's matching visits its vertices.

// Level is one rung of a coarsening hierarchy: the level's graph, and
// CMap, the map of its vertices to the vertices of the next, coarser
// level (nil on the coarsest rung).
type Level struct {
	G    *graph.Graph
	CMap []int32
}

// Coarsen builds the heavy-edge hierarchy of the symmetric graph g
// down to at most to vertices, with no randomness: each level's
// matching visits the vertices in decreasing order of total incident
// weight, ties by id, and matches each with its heaviest unmatched
// neighbour, ties to the lowest id on rows that ascend, as every
// graph of the CSR contract's does. It is the hierarchy of the §III-B
// multilevel mapper (UML). Contraction scratch comes from ar (nil
// allocates fresh).
func Coarsen(g *graph.Graph, to int, ar *arena.Arena) []Level {
	return hierarchy(g, to, ar, func(cur *graph.Graph) ([]int32, int) {
		return matchVertices(cur, HeavyEdge, byIncidentWeight(cur), nil)
	})
}

// coarsen builds the partitioner's hierarchy: each level's matching
// visits the vertices in an order rng draws.
func coarsen(g *graph.Graph, opt Options, rng *rand.Rand) []Level {
	return hierarchy(g, opt.CoarsenTo, opt.Arena, func(cur *graph.Graph) ([]int32, int) {
		return matchVertices(cur, opt.Matching, rng.Perm(cur.N()), rng)
	})
}

// hierarchy builds the levels from g down, matching each level with
// match and contracting it with graph.Contract, until a level has at
// most to vertices or its matching would keep more than 95% of them.
func hierarchy(g *graph.Graph, to int, ar *arena.Arena, match func(*graph.Graph) ([]int32, int)) []Level {
	levels := []Level{{G: g}}
	cur := g
	for cur.N() > to {
		cmap, nc := match(cur)
		if float64(nc) > 0.95*float64(cur.N()) {
			break // diminishing returns (star-like graphs)
		}
		next := graph.Contract(cur, cmap, nc, ar)
		levels[len(levels)-1].CMap = cmap
		levels = append(levels, Level{G: next})
		cur = next
	}
	return levels
}

// byIncidentWeight returns g's vertices in decreasing order of total
// incident edge weight, ties by id.
func byIncidentWeight(g *graph.Graph) []int {
	n := g.N()
	order := make([]int, n)
	incident := make([]int64, n)
	for v := range order {
		order[v] = v
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			incident[v] += g.EdgeWeight(int(i))
		}
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(incident[b], incident[a]), cmp.Compare(a, b))
	})
	return order
}

// matchVertices computes a matching of g according to the policy,
// visiting the vertices in the given order, and returns the coarse
// vertex id of every fine vertex plus the number of coarse vertices.
// Unmatched vertices map to singleton coarse vertices. rng is drawn
// from only by RandomEdge.
func matchVertices(g *graph.Graph, policy Matching, order []int, rng *rand.Rand) ([]int32, int) {
	n := g.N()
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
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
