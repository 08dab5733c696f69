package core

import (
	"repro/internal/arena"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/routecache"
)

// This file implements the multilevel variant of the paper's WH
// refinement that §III-B sketches: "With slight modifications, it can
// perform the refinement on the finer level task vertices or in a
// multilevel fashion from coarser to finer levels."
//
// MapUML is the hierarchy plus Algorithm 1 placement plus Algorithm 2
// at every level: it coarsens the (supertask) graph with the grouping
// partitioner's heavy-edge coarsening (partition.Coarsen, which visits
// the vertices heaviest first instead of in a random order), places
// the coarsest clusters onto node regions grown by BFS over the
// topology in Algorithm 1's order, and then runs refineLevel from the
// coarsest level to the finest. At a coarse level a swap exchanges the
// node sets of two equal-cardinality clusters; at the finest level
// every vertex is its own cluster and the pass loop is Algorithm 2
// itself.

// umlCoarsenTo is the cluster count at which MapUML's hierarchy stops
// coarsening.
const umlCoarsenTo = 16

// clusterSets borrows from ar the clusters of hierarchy level l over
// the fine (level-0) vertices. Return cl.buf to ar when done.
func clusterSets(levels []partition.Level, l int, ar *arena.Arena) clusters {
	n0, nc := levels[0].G.N(), levels[l].G.N()
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
		cmap := levels[i].CMap
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
// allocated nodes with the multilevel scheme: partition.Coarsen's
// hierarchy, BFS region placement of the coarsest clusters, and
// Algorithm 2 from the coarsest level to the finest. A graph too small
// to coarsen gets UWH. It returns the task→node mapping. ex supplies
// the solve's scratch arena (the hierarchy's contraction scratch
// included), worker pool and cancellation; nil runs serial with fresh
// allocations.
func MapUML(g *graph.Graph, tab *routecache.Table, ex *Exec) []int32 {
	if tab.Len() < g.N() {
		panic("core: fewer allocated nodes than tasks")
	}
	ar := ex.arenaOf()
	levels := partition.Coarsen(g, umlCoarsenTo, ar)
	L := len(levels) - 1
	ex.Count("coarse_levels", int64(L))
	if L == 0 {
		return MapUWH(g, tab, ex)
	}
	st := newMapState(g, tab, ex)
	defer st.release()
	for l := L; l >= 0; l-- {
		cl := clusterSets(levels, l, ar)
		if l == L {
			placeCoarsest(levels[L].G, cl, st)
		}
		refineLevel(st, levels[l].G, cl, RefineOptions{Exec: ex})
		ar.PutInt32s(cl.buf)
	}
	nodeOf := make([]int32, g.N())
	st.nodesInto(nodeOf)
	return nodeOf
}
