package core

import (
	"repro/internal/ds"
	"repro/internal/graph"
	"repro/internal/routecache"
)

// RefineWHFine performs Algorithm 2 on the *finer level* task
// vertices, the variant §III-B describes but leaves switched off by
// default: instead of swapping whole supertasks (nodes), it swaps
// individual tasks between groups. The paper's caveat — "with
// WH-improving swap operations on the finer level, the total
// internode communication volume can also increase and the
// performance may decrease. Although this increase can also be
// tracked during the refinement..." — is implemented literally: a
// swap is accepted only when it strictly lowers WH without raising
// the inter-node communication volume.
//
// fine is the symmetric fine task graph; group maps each task to a
// group (mutated in place); nodeOf maps groups to distinct allocated
// nodes of tab (not mutated). Swapping two tasks exchanges their
// groups, so per-group occupancies (processor counts) are preserved.
// It returns the WH
// gain and the inter-node volume gain achieved (both nonnegative,
// doubled-edge accounting).
func RefineWHFine(fine *graph.Graph, tab *routecache.Table, group []int32, nodeOf []int32, opt RefineOptions) (whGain, volGain int64) {
	opt = opt.withDefaults()
	ex := opt.Exec
	n := fine.N()
	// Each task's allocation index, its group's node, swapped with the
	// tasks.
	loc := make([]int32, n)
	for t, g := range group {
		loc[t] = tab.Local(nodeOf[g])
	}
	taskWH := func(t int32) int64 { return vertexWH(fine, tab, loc, t, WeightedHops) }
	// volDelta returns the inter-node volume change of swapping tasks
	// a and b, which sit on different nodes: an edge to a task on the
	// node one of them leaves starts to cross, one to a task on the
	// node it joins stops. The a-b edge keeps crossing.
	volDelta := func(a, b int32) int64 {
		var d int64
		for _, p := range [2][2]int32{{a, b}, {b, a}} {
			t, other := p[0], p[1]
			from, to := loc[t], loc[other]
			for i := fine.Xadj[t]; i < fine.Xadj[t+1]; i++ {
				switch u := fine.Adj[i]; {
				case u == other:
				case loc[u] == from:
					d += fine.EdgeWeight(int(i))
				case loc[u] == to:
					d -= fine.EdgeWeight(int(i))
				}
			}
		}
		return 2 * d
	}

	// BFS over the topology from the nodes of a task's neighbours,
	// mirroring Algorithm 2's candidate search; candidate tasks come
	// from the groups mapped to visited nodes, indexed by allocation
	// index.
	tasksOnNode := make([][]int32, tab.Len())
	for t, l := range loc {
		tasksOnNode[l] = append(tasksOnNode[l], int32(t))
	}
	moveTask := func(t int32, from, to int32) {
		list := tasksOnNode[from]
		for i, x := range list {
			if x == t {
				list[i] = list[len(list)-1]
				tasksOnNode[from] = list[:len(list)-1]
				break
			}
		}
		tasksOnNode[to] = append(tasksOnNode[to], t)
	}

	st := newMapState(fine, tab, ex) // only for its BFS scratch
	defer st.release()
	var totalWH int64
	for t := 0; t < n; t++ {
		totalWH += taskWH(int32(t))
	}
	whHeap := ds.NewIndexedMaxHeap(n)
	seeds := make([]int32, 0, 32)
	rekey := func(t int32) {
		if whHeap.Contains(int(t)) {
			whHeap.Update(int(t), taskWH(t))
		}
	}

	for pass := 0; pass < opt.MaxPasses; pass++ {
		if ex.cancelled() {
			break
		}
		ex.Count("fine_passes", 1)
		passStart := totalWH
		whHeap.Clear()
		for t := 0; t < n; t++ {
			whHeap.Push(t, taskWH(int32(t)))
		}
		for whHeap.Len() > 0 {
			if ex.cancelled() {
				break
			}
			tw, _ := whHeap.Pop()
			twh := int32(tw)
			seeds = seeds[:0]
			for _, u := range fine.Neighbors(int(twh)) {
				seeds = append(seeds, tab.Node(loc[u]))
			}
			if len(seeds) == 0 {
				continue
			}
			myLoc := loc[twh]
			tried := 0
			st.bfs(seeds, func(node, lv int32) bool {
				l := tab.Local(node)
				if l < 0 || l == myLoc {
					return true
				}
				cands := tasksOnNode[l]
				if len(cands) == 0 {
					return true
				}
				tried++
				// Pick the best swap partner on this node: the largest
				// WH drop among the swaps that raise no inter-node
				// volume.
				var best int32 = -1
				var bestWH, bestVol int64
				for _, cand := range cands {
					dWH := pairDelta(fine, tab, loc, twh, cand, WeightedHops)
					if dWH >= 0 || best >= 0 && dWH >= bestWH {
						continue
					}
					if dVol := volDelta(twh, cand); dVol <= 0 {
						best, bestWH, bestVol = cand, dWH, dVol
					}
				}
				if best >= 0 {
					ex.Count("fine_swaps", 1)
					group[twh], group[best] = group[best], group[twh]
					loc[twh], loc[best] = l, myLoc
					moveTask(twh, myLoc, l)
					moveTask(best, l, myLoc)
					totalWH += bestWH
					whGain -= bestWH
					volGain -= bestVol
					for _, u := range fine.Neighbors(int(twh)) {
						rekey(u)
					}
					for _, u := range fine.Neighbors(int(best)) {
						rekey(u)
					}
					rekey(best)
					return false
				}
				return tried < opt.Delta
			})
		}
		gain := passStart - totalWH
		if passStart == 0 || float64(gain) < opt.MinPassGain*float64(passStart) {
			break
		}
	}
	return whGain, volGain
}
