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
	n := fine.N()
	// A task's node is held as its group's allocation index.
	locOf := make([]int32, len(nodeOf))
	for g, m := range nodeOf {
		locOf[g] = tab.Local(m)
	}
	nodeOfTask := func(t int32) int32 { return locOf[group[t]] }

	taskWH := func(t int32) int64 {
		var wh int64
		row := tab.DistRow(nodeOfTask(t))
		for i := fine.Xadj[t]; i < fine.Xadj[t+1]; i++ {
			wh += fine.EdgeWeight(int(i)) * int64(row[nodeOfTask(fine.Adj[i])])
		}
		return wh
	}
	// deltas returns the WH and inter-node-volume change of swapping
	// tasks a and b (groups exchanged).
	deltas := func(a, b int32) (dWH, dVol int64) {
		na, nb := nodeOfTask(a), nodeOfTask(b)
		if na == nb {
			return 0, 0
		}
		acc := func(t int32, from, to int32, skip int32) {
			rowFrom, rowTo := tab.DistRow(from), tab.DistRow(to)
			for i := fine.Xadj[t]; i < fine.Xadj[t+1]; i++ {
				u := fine.Adj[i]
				if u == skip {
					continue
				}
				nu := nodeOfTask(u)
				// The neighbour may be the other swapped task; its
				// node flips too.
				if u == a {
					nu = nb
				} else if u == b {
					nu = na
				}
				c := fine.EdgeWeight(int(i))
				dWH += c * int64(rowTo[nu]-rowFrom[nu])
				wasCross := from != nu
				nowCross := to != nu
				switch {
				case nowCross && !wasCross:
					dVol += c
				case wasCross && !nowCross:
					dVol -= c
				}
			}
		}
		acc(a, na, nb, b)
		acc(b, nb, na, a)
		return 2 * dWH, 2 * dVol
	}

	// BFS over the topology from the nodes of a task's neighbours,
	// mirroring Algorithm 2's candidate search; candidate tasks come
	// from the groups mapped to visited nodes, indexed by allocation
	// index.
	tasksOnNode := make([][]int32, tab.Len())
	for t := 0; t < n; t++ {
		nd := nodeOfTask(int32(t))
		tasksOnNode[nd] = append(tasksOnNode[nd], int32(t))
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

	st := newMapState(fine, tab, opt.Exec) // only for its BFS scratch
	defer st.release()
	var totalWH int64
	for t := 0; t < n; t++ {
		totalWH += taskWH(int32(t))
	}
	whHeap := ds.NewIndexedMaxHeap(n)
	seeds := make([]int32, 0, 32)

	for pass := 0; pass < opt.MaxPasses; pass++ {
		opt.Exec.Count("fine_passes", 1)
		passStart := totalWH
		whHeap.Clear()
		for t := 0; t < n; t++ {
			whHeap.Push(t, taskWH(int32(t)))
		}
		for whHeap.Len() > 0 {
			tw, _ := whHeap.Pop()
			twh := int32(tw)
			seeds = seeds[:0]
			for _, u := range fine.Neighbors(int(twh)) {
				seeds = append(seeds, tab.Node(nodeOfTask(u)))
			}
			if len(seeds) == 0 {
				continue
			}
			myLoc := nodeOfTask(twh)
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
				// Pick the best swap partner on this node.
				var best int32 = -1
				var bestWH, bestVol int64
				for _, cand := range cands {
					dWH, dVol := deltas(twh, cand)
					if dWH < 0 && dVol <= 0 && (best < 0 || dWH < bestWH) {
						best, bestWH, bestVol = cand, dWH, dVol
					}
				}
				if best >= 0 {
					opt.Exec.Count("fine_swaps", 1)
					ga, gb := group[twh], group[best]
					group[twh], group[best] = gb, ga
					moveTask(twh, myLoc, l)
					moveTask(best, l, myLoc)
					totalWH += bestWH
					whGain -= bestWH
					volGain -= bestVol
					for _, u := range fine.Neighbors(int(twh)) {
						if whHeap.Contains(int(u)) {
							whHeap.Update(int(u), taskWH(u))
						}
					}
					for _, u := range fine.Neighbors(int(best)) {
						if whHeap.Contains(int(u)) {
							whHeap.Update(int(u), taskWH(u))
						}
					}
					if whHeap.Contains(int(best)) {
						whHeap.Update(int(best), taskWH(best))
					}
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
