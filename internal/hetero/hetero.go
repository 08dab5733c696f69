// Package hetero is the heterogeneous-processor subsystem: per-task
// execution costs (task-graph vertex weights) crossed with per-node
// speed factors. It computes per-node finish times and the compute
// makespan they imply, provides a makespan-aware load-repair stage
// (greedy migration of the costliest tasks off the bottleneck node
// onto the cheapest feasible node, deterministic tie-breaks — the
// CPU/GPU greedy-migration scheme the heterogeneous-mapping
// literature converges on), and a hetero-aware greedy construction
// mapper (HET) that places the heaviest supertask groups onto the
// fastest nodes first, breaking ties toward communication locality.
//
// Everything here is exactly neutral on homogeneous inputs: with unit
// loads and unit speeds the finish time of a node is its task count,
// the repair stage finds no improving move beyond capacity balance,
// and the engine never invokes it unless asked — which is what keeps
// every pre-heterogeneity golden byte-identical.
package hetero

import (
	"sort"

	"repro/internal/alloc"
	"repro/internal/graph"
	"repro/internal/torus"
)

// FinishTimes returns the per-group compute finish times of a
// placement: group g's summed task load divided by the speed of the
// node hosting it. g is the FINE task graph (VW = per-task loads, nil
// meaning unit), group maps task→group, and speed[gi] is the (positive)
// speed of group gi's node. The returned slice is freshly allocated,
// one entry per group.
func FinishTimes(g *graph.Graph, group []int32, speed []float64) []float64 {
	load := make([]int64, len(speed))
	for t := 0; t < g.N(); t++ {
		load[group[t]] += g.VertexWeight(t)
	}
	finish := make([]float64, len(speed))
	for gi := range finish {
		finish[gi] = float64(load[gi]) / speed[gi]
	}
	return finish
}

// Summary computes the makespan (max per-node finish time) and the
// load imbalance (max/mean of the finish times; 1 is perfectly
// balanced, 0 when nothing computes) of a placement. It reads the
// fine task graph, so it is exact after task-level migration and
// fine-level refinement, not just after grouping.
func Summary(g *graph.Graph, group []int32, speed []float64) (makespan, imbalance float64) {
	finish := FinishTimes(g, group, speed)
	var sum float64
	for _, f := range finish {
		sum += f
		if f > makespan {
			makespan = f
		}
	}
	if len(finish) > 0 && sum > 0 {
		imbalance = makespan * float64(len(finish)) / sum
	}
	return makespan, imbalance
}

// RepairLoad is the makespan-aware load-repair stage: while some node
// finishes strictly later than the rest, migrate that node's
// costliest task to the feasible node (a free processor slot) whose
// resulting finish time is lowest. Each accepted move strictly lowers
// the (makespan, nodes-at-makespan) pair, so the pass terminates; all
// choices have deterministic tie-breaks (bottleneck: lower group
// index; task: heavier load then lower task id; target: lower
// resulting finish, then faster node, then lower group index), so the
// result is byte-identical at any worker count.
//
// group is mutated in place; coarse.VW (per-group summed loads), when
// non-nil, is kept in sync so later stages see the migrated loads.
// speed[gi] and capacity[gi] are the speed and the processor count of
// group gi's node; no group changes node. Returns the number of tasks
// migrated.
func RepairLoad(g *graph.Graph, coarse *graph.Graph, group []int32, speed []float64, capacity []int64) int {
	r := newLoadRepair(g, coarse, group, speed, capacity)
	moves := 0
	for r.move() {
		moves++
	}
	return moves
}

// loadRepair is the state of one RepairLoad pass: the placement it
// mutates plus the per-group summed loads and task counts it keeps in
// step with every migration.
type loadRepair struct {
	g, coarse   *graph.Graph
	group       []int32
	speed       []float64
	capacity    []int64
	load, count []int64
}

func newLoadRepair(g *graph.Graph, coarse *graph.Graph, group []int32, speed []float64, capacity []int64) *loadRepair {
	r := &loadRepair{g: g, coarse: coarse, group: group, speed: speed, capacity: capacity,
		load: make([]int64, len(speed)), count: make([]int64, len(speed))}
	for t := 0; t < g.N(); t++ {
		r.load[group[t]] += g.VertexWeight(t)
		r.count[group[t]]++
	}
	return r
}

func (r *loadRepair) finish(gi int32) float64 {
	return float64(r.load[gi]) / r.speed[gi]
}

// tasksByLoad enumerates a group's tasks heaviest first (ties to the
// lower task id). Rebuilt per bottleneck visit — the bottleneck set
// shrinks monotonically, so this stays far off any hot path.
func (r *loadRepair) tasksByLoad(gi int32) []int32 {
	var ts []int32
	for t := 0; t < r.g.N(); t++ {
		if r.group[t] == gi {
			ts = append(ts, int32(t))
		}
	}
	sort.Slice(ts, func(a, b int) bool {
		wa, wb := r.g.VertexWeight(int(ts[a])), r.g.VertexWeight(int(ts[b]))
		if wa != wb {
			return wa > wb
		}
		return ts[a] < ts[b]
	})
	return ts
}

// move makes the next accepted migration off the bottleneck group and
// reports whether there was one; false means the pass is done.
func (r *loadRepair) move() bool {
	nGroups := int32(len(r.speed))
	// Bottleneck: the latest-finishing group, ties to the lower index.
	var worst int32
	worstFinish := r.finish(0)
	for gi := int32(1); gi < nGroups; gi++ {
		if f := r.finish(gi); f > worstFinish {
			worst, worstFinish = gi, f
		}
	}
	if worstFinish == 0 {
		return false // nothing computes anywhere
	}
	for _, t := range r.tasksByLoad(worst) {
		w := r.g.VertexWeight(int(t))
		if w <= 0 {
			break // zero-load tasks cannot lower any finish time
		}
		newSrc := float64(r.load[worst]-w) / r.speed[worst]
		if newSrc >= worstFinish {
			continue
		}
		// Cheapest feasible target: free slot, lowest resulting
		// finish; ties to the faster node, then the lower index.
		var best int32 = -1
		var bestFinish, bestSpeed float64
		for gi := int32(0); gi < nGroups; gi++ {
			if gi == worst || r.count[gi] >= r.capacity[gi] {
				continue
			}
			sp := r.speed[gi]
			nf := float64(r.load[gi]+w) / sp
			if best < 0 || nf < bestFinish || (nf == bestFinish && sp > bestSpeed) {
				best, bestFinish, bestSpeed = gi, nf, sp
			}
		}
		if best < 0 || bestFinish >= worstFinish {
			continue // this task cannot come off without a new bottleneck
		}
		r.group[t] = best
		r.load[worst] -= w
		r.load[best] += w
		r.count[worst]--
		r.count[best]++
		if r.coarse != nil && r.coarse.VW != nil {
			r.coarse.VW[worst] -= w
			r.coarse.VW[best] += w
		}
		return true
	}
	return false
}

// Map is the hetero-aware greedy construction mapper (HET): supertask
// groups in descending load order (ties to the lower index) each take
// the unassigned allocated node minimizing the group's compute finish
// time load/speed, breaking ties toward the node with the lowest
// weighted-hop cost to the group's already-placed neighbors, then
// toward allocation order. On a homogeneous allocation the finish
// times all tie and the mapper degrades to a pure communication-
// locality greedy — still a valid (if simple) construction.
func Map(coarse *graph.Graph, topo torus.Topology, a *alloc.Allocation) []int32 {
	n := coarse.N()
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		wi, wj := coarse.VertexWeight(int(order[i])), coarse.VertexWeight(int(order[j]))
		if wi != wj {
			return wi > wj
		}
		return order[i] < order[j]
	})

	nodeOf := make([]int32, n)
	for i := range nodeOf {
		nodeOf[i] = -1
	}
	taken := make([]bool, len(a.Nodes))
	for _, gi := range order {
		w := coarse.VertexWeight(int(gi))
		var best = -1
		var bestCost, bestAff float64
		for ai, node := range a.Nodes {
			if taken[ai] {
				continue
			}
			cost := float64(w) / a.Speed(ai)
			if best >= 0 && cost > bestCost {
				continue
			}
			// Affinity: weighted hops from this node to the group's
			// already-placed neighbors (lower is better).
			var aff float64
			for i := coarse.Xadj[gi]; i < coarse.Xadj[gi+1]; i++ {
				u := coarse.Adj[i]
				if nodeOf[u] < 0 {
					continue
				}
				aff += float64(coarse.EdgeWeight(int(i))) *
					float64(topo.HopDist(int(node), int(nodeOf[u])))
			}
			if best < 0 || cost < bestCost || (cost == bestCost && aff < bestAff) {
				best, bestCost, bestAff = ai, cost, aff
			}
		}
		nodeOf[gi] = a.Nodes[best]
		taken[best] = true
	}
	return nodeOf
}
