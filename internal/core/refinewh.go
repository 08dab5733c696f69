package core

import (
	"repro/internal/graph"
	"repro/internal/routecache"
)

// RefineOptions configures Algorithms 2 and 3.
type RefineOptions struct {
	// Delta bounds the swap candidates examined per task (∆=8 in the
	// paper's experiments).
	Delta int
	// MinPassGain is the minimum relative WH improvement a pass must
	// achieve for another pass to run (0.5% in the paper).
	MinPassGain float64
	// Objective selects WH or TH for Algorithm 2.
	Objective Objective
	// MaxPasses is a safety bound on refinement passes (default 32).
	MaxPasses int
	// Exec supplies the solve's scratch arena, worker pool and
	// cancellation; nil runs serial with fresh allocations.
	Exec *Exec
}

func (o RefineOptions) withDefaults() RefineOptions {
	if o.Delta == 0 {
		o.Delta = 8
	}
	if o.MinPassGain == 0 {
		o.MinPassGain = 0.005
	}
	if o.MaxPasses == 0 {
		o.MaxPasses = 32
	}
	return o
}

// RefineWH runs Algorithm 2 on a complete task→node mapping nodeOf of
// the symmetric coarse graph g onto tab's allocated nodes, mutating it
// in place. It returns the total WH (or TH) improvement achieved, in
// the doubled edge accounting of the symmetric graph.
func RefineWH(g *graph.Graph, tab *routecache.Table, nodeOf []int32, opt RefineOptions) int64 {
	opt = opt.withDefaults()
	n := g.N()
	ex := opt.Exec
	st := newMapState(g, tab, ex)
	defer st.release()
	st.placeNodes(nodeOf)
	// st.nodeOf holds allocation indices; write the node ids back at
	// the end (before release, which runs last-in).
	defer st.nodesInto(nodeOf)

	// taskWHops: the WH a task is individually responsible for.
	taskWH := func(t int32) int64 {
		var wh int64
		row := tab.DistRow(st.nodeOf[t])
		for i := g.Xadj[t]; i < g.Xadj[t+1]; i++ {
			wh += hopCost(g, i, opt.Objective) * int64(row[st.nodeOf[g.Adj[i]]])
		}
		return wh
	}
	ar := ex.arenaOf()
	// Per-task WH values, recomputed in parallel at each pass start:
	// taskWH(t) reads only the shared placement, so scoring fans out
	// over the worker pool and the serial heap load below keeps the
	// iteration order identical at every worker count.
	whVals := ar.Int64s(n)
	whHeap := ar.MaxHeap(n)
	defer func() {
		ar.PutInt64s(whVals)
		ar.PutMaxHeap(whHeap)
	}()
	loadWH := func() {
		ex.par().ForEachIdx(n, func(t int) { whVals[t] = taskWH(int32(t)) })
	}
	loadWH()
	var totalWH int64
	for t := 0; t < n; t++ {
		totalWH += whVals[t]
	}
	var totalGain int64
	cands := make([]int32, 0, opt.Delta)

	for pass := 0; pass < opt.MaxPasses; pass++ {
		if ex.cancelled() {
			break
		}
		passSwaps := int64(0)
		passStartWH := totalWH
		// Load the heap with each task's incurred WH.
		whHeap.Clear()
		if pass > 0 {
			loadWH()
		}
		for t := 0; t < n; t++ {
			whHeap.Push(t, whVals[t])
		}
		for whHeap.Len() > 0 {
			if ex.cancelled() {
				break
			}
			twhInt, _ := whHeap.Pop()
			twh := int32(twhInt)
			// Collect up to Delta swap partners in BFS order — the
			// exact prefix the serial loop would have tried — then
			// apply the first improving swap in that order. Scoring
			// stays serial here: a supertask pairDelta is O(deg),
			// far below the cost of a fan-out; the stage's
			// parallelism lives in the per-pass loadWH above.
			cands = st.swapPartners(twh, opt.Delta, cands)
			chosen := -1
			var chosenDelta int64
			for i, t := range cands {
				if d := pairDelta(g, tab, st.nodeOf, twh, t, opt.Objective); d < 0 {
					chosen, chosenDelta = i, d
					break
				}
			}
			if chosen >= 0 {
				// Perform the swap.
				passSwaps++
				t := cands[chosen]
				ma, mb := st.nodeOf[twh], st.nodeOf[t]
				st.place(twh, mb)
				st.place(t, ma)
				totalWH += chosenDelta
				totalGain -= chosenDelta
				// Update whHeap for the neighbours of both tasks.
				for _, u := range g.Neighbors(int(twh)) {
					if whHeap.Contains(int(u)) {
						whHeap.Update(int(u), taskWH(u))
					}
				}
				for _, u := range g.Neighbors(int(t)) {
					if whHeap.Contains(int(u)) {
						whHeap.Update(int(u), taskWH(u))
					}
				}
				if whHeap.Contains(int(t)) {
					whHeap.Update(int(t), taskWH(t))
				}
			}
		}
		ex.Count("wh_passes", 1)
		ex.Count("wh_swaps", passSwaps)
		passGain := passStartWH - totalWH
		if passStartWH == 0 || float64(passGain) < opt.MinPassGain*float64(passStartWH) {
			break
		}
	}
	return totalGain
}

// pairDelta is the total WH (or TH) change of swapping the nodes of
// tasks a and b, whose allocation indices loc holds (negative is an
// improvement), in the doubled-edge accounting of the symmetric graph.
// The a-b edge itself contributes no change because hop distance is
// symmetric.
func pairDelta(g *graph.Graph, tab *routecache.Table, loc []int32, a, b int32, obj Objective) int64 {
	rowA, rowB := tab.DistRow(loc[a]), tab.DistRow(loc[b])
	var d int64
	for i := g.Xadj[a]; i < g.Xadj[a+1]; i++ {
		if u := g.Adj[i]; u != b {
			mu := loc[u]
			d += hopCost(g, i, obj) * int64(rowB[mu]-rowA[mu])
		}
	}
	for i := g.Xadj[b]; i < g.Xadj[b+1]; i++ {
		if u := g.Adj[i]; u != a {
			mu := loc[u]
			d += hopCost(g, i, obj) * int64(rowA[mu]-rowB[mu])
		}
	}
	return 2 * d // symmetric graph stores each edge twice
}

// hopCost is what one hop of directed edge i costs under obj: its
// weight for WH, 1 for TH.
func hopCost(g *graph.Graph, i int32, obj Objective) int64 {
	if obj == TotalHops {
		return 1
	}
	return g.EdgeWeight(int(i))
}
