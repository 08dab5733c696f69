package partition

import (
	"math/rand"

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
		next := graph.Contract(cur, cmap, nc, opt.Arena)
		levels[len(levels)-1].cmap = cmap
		levels = append(levels, level{g: next})
		cur = next
	}
	return levels
}
