package graph

import "repro/internal/ds"

// BFS runs a breadth-first search from the given seed set (all seeds
// at level 0) and invokes visit for every reached vertex with its
// level, in BFS order. Returning false from visit aborts the
// traversal early — the mapping algorithms use this for their
// early-exit mechanisms. Seeds themselves are visited first.
func BFS(g *Graph, seeds []int32, visit func(v int32, level int) bool) {
	level := make([]int32, g.N())
	for i := range level {
		level[i] = -1
	}
	q := ds.NewQueue(len(seeds) + 16)
	for _, s := range seeds {
		if level[s] >= 0 {
			continue
		}
		level[s] = 0
		q.Push(int(s))
	}
	for q.Len() > 0 {
		v := q.Pop()
		if !visit(int32(v), int(level[v])) {
			return
		}
		for _, u := range g.Neighbors(v) {
			if level[u] < 0 {
				level[u] = level[v] + 1
				q.Push(int(u))
			}
		}
	}
}

// FarthestVertex returns a vertex at the maximum BFS distance from the
// seed set, restricted to vertices where eligible returns true (pass
// nil for no restriction). Ties are broken in favour of the vertex
// with the larger tieWeight (pass nil for id order: the smallest id
// wins). found is false when no eligible vertex is reachable.
//
// This is the "farthest unmapped task" selection of Algorithm 1, with
// the paper's tie-break "in the favor of the task with a higher
// communication volume".
func FarthestVertex(g *Graph, seeds []int32, eligible func(v int32) bool, tieWeight []int64) (best int32, level int, found bool) {
	bestLevel := -1
	best = -1
	BFS(g, seeds, func(v int32, lv int) bool {
		if eligible != nil && !eligible(v) {
			return true
		}
		switch {
		case lv > bestLevel:
			bestLevel, best = lv, v
		case lv == bestLevel && best >= 0 && tieWeight != nil && tieWeight[v] > tieWeight[best]:
			best = v
		}
		return true
	})
	if best < 0 {
		return -1, -1, false
	}
	return best, bestLevel, true
}
