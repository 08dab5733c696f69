package core

import (
	"sort"

	"repro/internal/arena"
	"repro/internal/graph"
	"repro/internal/routecache"
)

// This file implements the multilevel variant of the paper's WH
// refinement that §III-B sketches: "With slight modifications, it can
// perform the refinement on the finer level task vertices or in a
// multilevel fashion from coarser to finer levels."
//
// MapUML is the hierarchy plus Algorithm 1 placement plus Algorithm 2
// at every level: it coarsens the (supertask) graph with heavy-edge
// matching, places the coarsest clusters onto node regions grown by
// BFS over the topology in Algorithm 1's order, and then runs
// refineLevel from the coarsest level to the finest. At a coarse level
// a swap exchanges the node sets of two equal-cardinality clusters; at
// the finest level every vertex is its own cluster and the pass loop
// is Algorithm 2 itself.

// umlCoarsenTo is the cluster count at which MapUML's hierarchy stops
// coarsening.
const umlCoarsenTo = 16

// mlLevel is one rung of the multilevel hierarchy. cmap maps this
// level's vertices to the clusters of the next (coarser) level and is
// nil on the coarsest rung.
type mlLevel struct {
	g    *graph.Graph
	cmap []int32
}

// heavyEdgeMatch computes a deterministic heavy-edge matching: the
// vertices are visited in decreasing order of total incident weight
// (ties by id) and matched with their heaviest unmatched neighbour.
// It returns the fine→coarse map and the coarse vertex count.
func heavyEdgeMatch(g *graph.Graph) ([]int32, int) {
	n := g.N()
	order := make([]int32, n)
	incident := make([]int64, n)
	for v := 0; v < n; v++ {
		order[v] = int32(v)
		for _, w := range g.Weights(v) {
			incident[v] += w
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		return incident[order[i]] > incident[order[j]]
	})
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	for _, v := range order {
		if match[v] >= 0 {
			continue
		}
		var best int32 = -1
		var bestW int64 = -1
		nb := g.Neighbors(int(v))
		wt := g.Weights(int(v))
		for i, u := range nb {
			if u == v || match[u] >= 0 {
				continue
			}
			if wt[i] > bestW || (wt[i] == bestW && u < best) {
				bestW, best = wt[i], u
			}
		}
		if best >= 0 {
			match[v], match[best] = best, v
		} else {
			match[v] = v
		}
	}
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
		if m := match[v]; int(m) != v {
			cmap[m] = nc
		}
		nc++
	}
	return cmap, int(nc)
}

// mlHierarchy builds the matching hierarchy from the fine graph down
// to at most coarsenTo clusters, stopping early when matching stalls.
func mlHierarchy(g *graph.Graph, coarsenTo int) []mlLevel {
	levels := []mlLevel{{g: g}}
	cur := g
	for cur.N() > coarsenTo {
		cmap, nc := heavyEdgeMatch(cur)
		if float64(nc) > 0.95*float64(cur.N()) {
			break // star-like graph: matching no longer shrinks it
		}
		next := graph.Contract(cur, cmap, nc, nil)
		levels[len(levels)-1].cmap = cmap
		levels = append(levels, mlLevel{g: next})
		cur = next
	}
	return levels
}

// clusterSets borrows from ar the clusters of hierarchy level l over
// the fine (level-0) vertices. Return cl.buf to ar when done.
func clusterSets(levels []mlLevel, l int, ar *arena.Arena) clusters {
	n0, nc := levels[0].g.N(), levels[l].g.N()
	if l == 0 {
		// Every vertex its own cluster: of, off, mem and pos are all
		// the identity, so they share one buffer.
		ids := ar.Int32s(n0 + 1)
		for i := range ids {
			ids[i] = int32(i)
		}
		return clusters{buf: ids, of: ids[:n0], off: ids, mem: ids[:n0], pos: ids[:n0]}
	}
	buf := ar.Int32s(3*n0 + nc + 1)
	cl := clusters{buf: buf, of: buf[:n0], mem: buf[n0 : 2*n0], pos: buf[2*n0 : 3*n0], off: buf[3*n0:]}
	for v := range cl.of {
		cl.of[v] = int32(v)
	}
	for i := 0; i < l; i++ {
		cmap := levels[i].cmap
		for v, c := range cl.of {
			cl.of[v] = cmap[c]
		}
	}
	// Counting sort by cluster: off[c] first holds the end of c's
	// members, and filling from the highest vertex down leaves it at
	// their start with the members ascending.
	for _, c := range cl.of {
		cl.off[c]++
	}
	for c := 1; c <= nc; c++ {
		cl.off[c] += cl.off[c-1]
	}
	for v := n0 - 1; v >= 0; v-- {
		c := cl.of[v]
		cl.off[c]--
		cl.mem[cl.off[c]] = int32(v)
		cl.pos[v] = cl.off[c]
	}
	return cl
}

// placeCoarsest assigns every coarsest-level cluster of cl a region of
// as many empty allocated nodes as it has members, grown by BFS over
// the topology, in Algorithm 1's order and from the node GETBESTNODE
// picks for the cluster: a mapState over gl marks every node of a
// placed cluster's region with the cluster and holds the region's
// first node as the cluster's own. It places every fine vertex in
// fine.
func placeCoarsest(gl *graph.Graph, cl clusters, fine *mapState) {
	tab, ex := fine.tab, fine.ex
	st := newMapState(gl, tab, ex)
	defer st.release()
	greedyOrder(st, GreedyOptions{Exec: ex}, func(c, seed int32) {
		// Take the len(mem) empty allocated nodes nearest the seed's
		// node (BFS order, the empty seed first) and assign the
		// cluster's members to them in that order.
		mem := cl.members(c)
		got := 0
		take := func(l int32) {
			if got == 0 {
				st.nodeOf[c] = l
			}
			st.taskAt[l] = c
			fine.place(mem[got], l)
			got++
		}
		st.bfs([]int32{tab.Node(seed)}, func(node, lv int32) bool {
			if l := tab.Local(node); l >= 0 && st.taskAt[l] < 0 {
				take(l)
			}
			return got < len(mem)
		})
		for got < len(mem) {
			// Disconnected allocation remnants: take any free node.
			take(st.firstEmpty())
		}
	})
}

// MapUML maps the symmetric task graph g one-to-one onto tab's
// allocated nodes with the multilevel scheme: heavy-edge-matching
// hierarchy, BFS region placement of the coarsest clusters, and
// Algorithm 2 from the coarsest level to the finest. A graph too small
// to coarsen gets UWH. It returns the task→node mapping. ex supplies
// the solve's scratch arena, worker pool and cancellation; nil runs
// serial with fresh allocations.
func MapUML(g *graph.Graph, tab *routecache.Table, ex *Exec) []int32 {
	if tab.Len() < g.N() {
		panic("core: fewer allocated nodes than tasks")
	}
	levels := mlHierarchy(g, umlCoarsenTo)
	L := len(levels) - 1
	ex.Count("coarse_levels", int64(L))
	if L == 0 {
		return MapUWH(g, tab, ex)
	}
	st := newMapState(g, tab, ex)
	defer st.release()
	ar := ex.arenaOf()
	for l := L; l >= 0; l-- {
		cl := clusterSets(levels, l, ar)
		if l == L {
			placeCoarsest(levels[L].g, cl, st)
		}
		refineLevel(st, levels[l].g, cl, RefineOptions{Exec: ex})
		ar.PutInt32s(cl.buf)
	}
	nodeOf := make([]int32, g.N())
	st.nodesInto(nodeOf)
	return nodeOf
}
