package core

import (
	"repro/internal/graph"
	"repro/internal/routecache"
)

// RepairCapacities makes a one-to-one group→node mapping
// capacity-feasible for heterogeneous nodes (§III-A: group weights
// follow the per-node processor counts, so a group may only land on a
// node with enough processors). The mapping algorithms optimize
// locality without tracking capacities; this pass fixes any
// violations afterwards with weight-aware swaps chosen to damage WH
// the least.
//
// nodeOf maps each group to an allocated node of tab. weight[v] is
// the task count of group v and capacity[i] the processor count of
// tab's allocated node i (allocation order). When the multiset of
// group weights is dominated by the multiset of capacities — which the
// grouping step guarantees — a feasible assignment exists and the
// pass always terminates: each swap moves the most-oversubscribed
// group onto a node that fits it and strictly decreases the total
// oversubscription. Swaps are priced by Algorithm 2's pairDelta.
// Returns the number of swaps performed.
func RepairCapacities(g *graph.Graph, tab *routecache.Table, nodeOf []int32, weight []int64, capacity []int64) int {
	n := g.N()
	// loc mirrors nodeOf in allocation indices.
	loc := make([]int32, n)
	for v := 0; v < n; v++ {
		loc[v] = tab.Local(nodeOf[v])
	}
	excess := func(v int32) int64 {
		return weight[v] - capacity[loc[v]]
	}

	swaps := 0
	for {
		// Most oversubscribed group.
		var worst int32 = -1
		var worstExcess int64
		for v := int32(0); v < int32(n); v++ {
			if e := excess(v); e > worstExcess {
				worst, worstExcess = v, e
			}
		}
		if worst < 0 {
			return swaps
		}
		// Swap partner: a group on a node that fits worst, itself
		// lighter than worst (so total oversubscription strictly
		// drops). Among partners, least WH damage wins.
		var best int32 = -1
		var bestDelta int64
		for v := int32(0); v < int32(n); v++ {
			if v == worst || weight[v] >= weight[worst] {
				continue
			}
			if capacity[loc[v]] < weight[worst] {
				continue
			}
			d := pairDelta(g, tab, loc, worst, v, WeightedHops)
			if best < 0 || d < bestDelta || (d == bestDelta && v < best) {
				best, bestDelta = v, d
			}
		}
		if best < 0 {
			// No partner: capacities cannot host the weights (the
			// grouping step violated its contract). Leave the mapping
			// as is rather than loop forever.
			return swaps
		}
		nodeOf[worst], nodeOf[best] = nodeOf[best], nodeOf[worst]
		loc[worst], loc[best] = loc[best], loc[worst]
		swaps++
	}
}
