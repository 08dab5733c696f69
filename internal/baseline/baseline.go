// Package baseline reimplements the three mappers the paper compares
// against (§IV): DEF, the SMP-style default mapping of Hopper; TMAP,
// a LibTopoMap-like recursive-bipartitioning mapper whose primary
// metric is MC and which falls back to DEF when it cannot improve it;
// and SMAP, a Scotch-like dual recursive bipartitioning mapper.
//
// These are substitutes for closed/externally-built tools; they follow
// the published algorithm sketches and reproduce the baselines'
// qualitative behaviour (DEF already strong on WH/TH thanks to
// part-id locality, TMAP ≈ DEF with occasional MC gains, SMAP often
// worse than DEF on sparse allocations).
package baseline

import (
	"sort"

	"repro/internal/alloc"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/torus"
)

// DEF maps supertask g to the g-th allocated node: consecutive MPI
// ranks fill a node and nodes are taken in scheduler (SFC) order,
// exactly what Hopper's SMP-STYLE placement does (§IV-B).
func DEF(nTasks int, a *alloc.Allocation) []int32 {
	nodeOf := make([]int32, nTasks)
	for t := 0; t < nTasks; t++ {
		nodeOf[t] = a.Nodes[t%len(a.Nodes)]
	}
	return nodeOf
}

// TMAP maps the coarse task graph with recursive bipartitioning: the
// task graph and the allocated node set are bisected in lockstep
// (tasks by min edge cut, nodes geometrically by their widest
// coordinate spread) until singletons remain. If the resulting MC is
// not lower than DEF's, DEF is returned, as LibTopoMap does (§IV-B).
// On topologies without a coordinate grid (fat trees, dragonflies)
// the geometric node split degrades to an allocation-order split.
func TMAP(g *graph.Graph, topo torus.Topology, a *alloc.Allocation, seed int64) []int32 {
	nodeOf := recursiveBipartition(g, topo, a, seed, true)
	def := DEF(g.N(), a)
	mTMAP := metrics.Compute(g, topo, &metrics.Placement{NodeOf: nodeOf})
	mDEF := metrics.Compute(g, topo, &metrics.Placement{NodeOf: def})
	if mTMAP.MC >= mDEF.MC {
		return def
	}
	return nodeOf
}

// SMAP maps with Scotch-style dual recursive bipartitioning: both the
// task graph and the node set are bisected recursively, but the node
// set is split by allocation order rather than geometry (Scotch 5.1's
// architecture decomposition does not see the sparse allocation's
// geometry, which is why the paper finds SMAP below DEF on most
// cases).
func SMAP(g *graph.Graph, topo torus.Topology, a *alloc.Allocation, seed int64) []int32 {
	return recursiveBipartition(g, topo, a, seed, false)
}

// recursiveBipartition maps g's tasks one-to-one onto the first g.N()
// allocated nodes with rbMap. The partitioner sees g through one view
// with unit task weights, one task per node, and with its edge weights
// spelled out, which partition.SplitSides needs.
func recursiveBipartition(g *graph.Graph, topo torus.Topology, a *alloc.Allocation, seed int64, geometric bool) []int32 {
	n := g.N()
	view := &graph.Graph{Xadj: g.Xadj, Adj: g.Adj, EW: g.EW, VW: make([]int64, n)}
	if view.EW == nil {
		view.EW = make([]int64, g.M())
		for i := range view.EW {
			view.EW[i] = 1
		}
	}
	tasks := make([]int32, n)
	for i := range tasks {
		view.VW[i] = 1
		tasks[i] = int32(i)
	}
	nodeOf := make([]int32, n)
	rbMap(view, tasks, append([]int32(nil), a.Nodes[:n]...), topo, seed, geometric, nodeOf)
	return nodeOf
}

// rbMap recursively assigns the given tasks to the given nodes
// (|tasks| == |nodes|). sub is the subgraph the tasks induce in the
// view, vertex i being tasks[i]. When geometric is true and the
// topology has a coordinate grid, the node set is split along the
// dimension with the widest spread (LibTopoMap style); otherwise it is
// split in allocation order (Scotch style). The task lists ascend from
// the start, 0..n−1, and each split keeps their order, so the halves
// partition.SplitSides builds are the subgraphs the halves' tasks
// induce.
func rbMap(sub *graph.Graph, tasks, nodes []int32, topo torus.Topology, seed int64, geometric bool, out []int32) {
	if len(tasks) == 0 {
		return
	}
	if len(tasks) == 1 {
		out[tasks[0]] = nodes[0]
		return
	}
	nl := len(nodes) / 2
	var nodesL, nodesR []int32
	if ct, ok := torus.As[torus.CoordTopology](topo); geometric && ok {
		nodesL, nodesR = splitGeometric(nodes, nl, ct)
	} else {
		nodesL = append([]int32(nil), nodes[:nl]...)
		nodesR = append([]int32(nil), nodes[nl:]...)
	}
	// Bisect the task subgraph with target sizes |nodesL| and |nodesR|.
	part, err := partition.PartitionTargets(sub, []int64{int64(len(nodesL)), int64(len(nodesR))},
		partition.Options{Seed: seed, Imbalance: 0.001})
	if err != nil {
		// Cannot happen with valid targets; degrade to order split.
		part = make([]int32, sub.N())
		for i := range part {
			if i >= len(nodesL) {
				part[i] = 1
			}
		}
	}
	// Hard-fit the side sizes to the node counts.
	fitSides(sub, part, len(nodesL))
	side := make([]int8, len(tasks))
	var tasksL, tasksR []int32
	for i, t := range tasks {
		if part[i] == 0 {
			tasksL = append(tasksL, t)
		} else {
			side[i] = 1
			tasksR = append(tasksR, t)
		}
	}
	subL, subR := partition.SplitSides(sub, side, len(tasksL), nil)
	rbMap(subL, tasksL, nodesL, topo, seed+1, geometric, out)
	rbMap(subR, tasksR, nodesR, topo, seed+2, geometric, out)
}

// splitGeometric splits nodes into two sets of sizes nl and
// len(nodes)-nl along the grid dimension with the widest coordinate
// spread among the set.
func splitGeometric(nodes []int32, nl int, topo torus.CoordTopology) (left, right []int32) {
	dims := topo.NDims()
	coords := make([][]int, len(nodes))
	var buf []int
	for i, m := range nodes {
		buf = topo.Coord(int(m), buf[:0])
		coords[i] = append([]int(nil), buf...)
	}
	bestDim, bestSpread := 0, -1
	for d := 0; d < dims; d++ {
		lo, hi := 1<<30, -1
		for i := range coords {
			c := coords[i][d]
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		if s := hi - lo; s > bestSpread {
			bestSpread, bestDim = s, d
		}
	}
	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := coords[order[a]], coords[order[b]]
		if ca[bestDim] != cb[bestDim] {
			return ca[bestDim] < cb[bestDim]
		}
		return nodes[order[a]] < nodes[order[b]]
	})
	for i, oi := range order {
		if i < nl {
			left = append(left, nodes[oi])
		} else {
			right = append(right, nodes[oi])
		}
	}
	return left, right
}

// fitSides forces exactly wantL vertices on side 0 by moving the
// least-connected boundary vertices.
func fitSides(g *graph.Graph, part []int32, wantL int) {
	count := [2]int{}
	for _, p := range part {
		count[p]++
	}
	for count[0] != wantL {
		var from, to int32
		if count[0] > wantL {
			from, to = 0, 1
		} else {
			from, to = 1, 0
		}
		// Move the vertex with the best (gain to other side).
		var bestV int32 = -1
		var bestGain int64 = -1 << 62
		for v := 0; v < g.N(); v++ {
			if part[v] != from {
				continue
			}
			var gain int64
			for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
				if part[g.Adj[i]] == to {
					gain += g.EdgeWeight(int(i))
				} else {
					gain -= g.EdgeWeight(int(i))
				}
			}
			if gain > bestGain {
				bestGain, bestV = gain, int32(v)
			}
		}
		part[bestV] = to
		count[from]--
		count[to]++
	}
}
