// Package remap computes warm-start placements for incremental
// remapping: given a finished mapping and a changed allocation, it
// keeps every task whose node survived exactly where it was and
// migrates only the stranded ones — tasks whose node left the
// allocation or whose node's capacity shrank below its load — via a
// cheapest-feasible-node greedy placement on the patched route state.
// The output is a complete grouping/placement pair in the new
// allocation's index space, ready for the engine's refinement stages
// to polish; everything here is serial and deterministic, so the
// remap pipeline inherits the engine's byte-identical-at-any-worker-
// count contract.
package remap

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/routecache"
)

// Instance is one warm-start computation: the symmetric fine task
// graph, the previous placement, and the new allocation as its
// patched route table with per-node capacities.
type Instance struct {
	// Sym is the undirected task graph (c(t,u) = w(t→u)+w(u→t)), the
	// cost model migration placement minimizes against.
	Sym *graph.Graph
	// Table is the new allocation's route table: its allocation order
	// is the new group index space, and its distance rows price every
	// migration.
	Table *routecache.Table
	// OldGroupOf maps each task to its previous group; OldNodeOf maps
	// each previous group to its network node (a bijection onto the
	// previous allocation).
	OldGroupOf, OldNodeOf []int32
	// NewCaps holds each new node's capacity, in allocation order.
	NewCaps []int64
}

// Plan is the warm-start placement: a complete task → group mapping
// onto the new allocation's group index space, the identity group →
// node assignment refinement then permutes, and the ids of the tasks
// that had to move.
type Plan struct {
	GroupOf  []int32
	NodeOf   []int32
	Stranded []int32
}

// PatchPlacement computes the warm-start plan. Group j of the new
// index space is pinned to Table.Node(j); a task keeps its group when
// its old node survived the delta, every other task is stranded and
// re-placed greedily: highest-traffic tasks first, each onto the
// feasible node with the cheapest weighted-hop attachment to the
// tasks already placed (ties to the lowest allocation index).
func PatchPlacement(inst Instance) (*Plan, error) {
	k := len(inst.OldGroupOf)
	if inst.Sym.N() != k {
		return nil, fmt.Errorf("remap: task graph has %d vertices, placement %d", inst.Sym.N(), k)
	}
	var total int64
	for _, c := range inst.NewCaps {
		total += c
	}
	if int64(k) > total {
		return nil, fmt.Errorf("remap: %d tasks exceed %d processors after the delta", k, total)
	}

	// Old group → new group: survive iff the group's node is still
	// allocated, which the table's local index answers (-1 for any
	// other id, one outside the topology included).
	tab := inst.Table
	seen := map[int32]bool{}
	groupMap := make([]int32, len(inst.OldNodeOf))
	for g, m := range inst.OldNodeOf {
		if seen[m] {
			return nil, fmt.Errorf("remap: previous placement maps two groups to node %d", m)
		}
		seen[m] = true
		groupMap[g] = tab.Local(m)
	}

	n := tab.Len()
	plan := &Plan{
		GroupOf: make([]int32, k),
		NodeOf:  make([]int32, n),
	}
	for j := range plan.NodeOf {
		plan.NodeOf[j] = tab.Node(int32(j))
	}
	load := make([]int64, n)
	for t := 0; t < k; t++ {
		og := inst.OldGroupOf[t]
		if og < 0 || int(og) >= len(groupMap) {
			return nil, fmt.Errorf("remap: task %d has group %d out of range", t, og)
		}
		j := groupMap[og]
		plan.GroupOf[t] = j
		if j >= 0 {
			load[j]++
		}
	}

	// Evict from surviving groups whose capacity shrank below their
	// load: the loosest-attached tasks leave first (cheapest to move),
	// ties to the lowest task id for determinism.
	for j := 0; j < n; j++ {
		if load[j] <= inst.NewCaps[j] {
			continue
		}
		var members []int32
		for t := 0; t < k; t++ {
			if plan.GroupOf[t] == int32(j) {
				members = append(members, int32(t))
			}
		}
		attach := func(t int32) int64 {
			var a int64
			adj, w := inst.Sym.Neighbors(int(t)), inst.Sym.Weights(int(t))
			for i, u := range adj {
				if plan.GroupOf[u] == int32(j) {
					a += w[i]
				}
			}
			return a
		}
		sort.Slice(members, func(a, b int) bool {
			aa, ab := attach(members[a]), attach(members[b])
			if aa != ab {
				return aa < ab
			}
			return members[a] < members[b]
		})
		for _, t := range members[:load[j]-inst.NewCaps[j]] {
			plan.GroupOf[t] = -1
		}
		load[j] = inst.NewCaps[j]
	}

	// Collect the stranded tasks, heaviest communicators first so the
	// traffic that matters most picks its node before the slots fill.
	var stranded []int32
	vol := make([]int64, k)
	for t := 0; t < k; t++ {
		for _, w := range inst.Sym.Weights(t) {
			vol[t] += w
		}
		if plan.GroupOf[t] < 0 {
			stranded = append(stranded, int32(t))
		}
	}
	sort.Slice(stranded, func(a, b int) bool {
		if vol[stranded[a]] != vol[stranded[b]] {
			return vol[stranded[a]] > vol[stranded[b]]
		}
		return stranded[a] < stranded[b]
	})

	// Greedy cheapest-feasible-node: for each stranded task, the node
	// minimizing the weighted hop distance to its already-placed
	// neighbours (stranded tasks placed earlier in this loop count).
	for _, t := range stranded {
		bestJ, bestCost := -1, int64(-1)
		adj, w := inst.Sym.Neighbors(int(t)), inst.Sym.Weights(int(t))
		for j := 0; j < n; j++ {
			if load[j] >= inst.NewCaps[j] {
				continue
			}
			var cost int64
			row := tab.DistRow(int32(j))
			for i, u := range adj {
				if gj := plan.GroupOf[u]; gj >= 0 {
					cost += w[i] * int64(row[gj])
				}
			}
			if bestJ < 0 || cost < bestCost {
				bestJ, bestCost = j, cost
			}
		}
		if bestJ < 0 {
			return nil, fmt.Errorf("remap: no feasible node for task %d", t)
		}
		plan.GroupOf[t] = int32(bestJ)
		load[bestJ]++
	}
	plan.Stranded = stranded
	return plan, nil
}
