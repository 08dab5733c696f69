package core

import (
	"repro/internal/graph"
	"repro/internal/partition"
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
// the doubled edge accounting of the symmetric graph. It is
// refineLevel on the one-rung hierarchy of g: every task its own
// cluster.
func RefineWH(g *graph.Graph, tab *routecache.Table, nodeOf []int32, opt RefineOptions) int64 {
	st := newMapState(g, tab, opt.Exec)
	defer st.release()
	st.placeNodes(nodeOf)
	// st.nodeOf holds allocation indices; write the node ids back at
	// the end (before release, which runs last-in).
	defer st.nodesInto(nodeOf)
	ar := opt.Exec.arenaOf()
	cl := clusterSets([]partition.Level{{G: g}}, 0, ar)
	defer ar.PutInt32s(cl.buf)
	return refineLevel(st, g, cl, opt)
}

// swapFanOutMembers is the cluster size from which refineLevel scores
// a cluster's swap candidates on the worker pool: swapDelta walks
// every member's adjacency, so smaller clusters score faster serially.
const swapFanOutMembers = 16

// refineLevel is Algorithm 2's pass loop at one level of a cluster
// hierarchy. st holds the placement of the fine graph st.g; gl is the
// level's graph, whose vertices are cl's clusters of fine vertices.
// Each pass pops the clusters in decreasing order of the WH (or TH)
// they incur, collects up to ∆ equal-cardinality swap candidates in
// the order a BFS over the topology from the nodes of the popped
// cluster's neighbours reaches them, and swaps the node sets of the
// popped cluster and the first candidate whose swap lowers WH, member
// by member. Passes run until one gains less than MinPassGain. At
// level 0 — gl is st.g, every vertex its own cluster — this is the
// paper's Algorithm 2, which counts its passes and swaps on the open
// trace span. It returns the total gain achieved (positive = better,
// doubled-edge accounting).
func refineLevel(st *mapState, gl *graph.Graph, cl clusters, opt RefineOptions) int64 {
	opt = opt.withDefaults()
	g, tab, ex, obj := st.g, st.tab, opt.Exec, opt.Objective
	ar, par := ex.arenaOf(), ex.par()
	nc := gl.N()
	// Per-cluster WH values, recomputed in parallel at each pass start:
	// cl.wh reads only the shared placement, so the reloads fan out over
	// the worker pool, and the serial heap fill keeps the pop order
	// identical at every worker count.
	whVals := ar.Int64s(nc)
	heap := ar.MaxHeap(nc)
	tried := ar.Int32s(nc) // generation marks: cluster already met by this BFS?
	// A popped cluster's seeds: each fine vertex of its neighbour
	// clusters at most once.
	seeds := ar.Int32s(g.N())
	defer func() {
		ar.PutInt64s(whVals)
		ar.PutMaxHeap(heap)
		ar.PutInt32s(tried)
		ar.PutInt32s(seeds)
	}()
	loadWH := func() {
		par.ForEachIdx(nc, func(c int) { whVals[c] = cl.wh(st, int32(c), obj) })
	}
	loadWH()
	var totalWH, totalGain int64
	for _, wh := range whVals {
		totalWH += wh
	}
	rekey := func(c int32) {
		if heap.Contains(int(c)) {
			heap.Update(int(c), cl.wh(st, c, obj))
		}
	}
	cands := make([]int32, 0, opt.Delta)
	gen := int32(0)
	// Candidate scores on the worker pool. Only coarse levels have
	// clusters that reach swapFanOutMembers.
	var deltas []int64
	if par.NumWorkers() > 1 && gl != g {
		deltas = make([]int64, opt.Delta)
	}

	for pass := 0; pass < opt.MaxPasses; pass++ {
		if ex.cancelled() {
			break
		}
		passSwaps := int64(0)
		passStartWH := totalWH
		heap.Clear()
		if pass > 0 {
			loadWH()
		}
		for c := 0; c < nc; c++ {
			heap.Push(c, whVals[c])
		}
		for heap.Len() > 0 {
			if ex.cancelled() {
				break
			}
			ci, _ := heap.Pop()
			a := int32(ci)
			size := len(cl.members(a))
			seeds = seeds[:0]
			for _, u := range gl.Neighbors(int(a)) {
				for _, t := range cl.members(u) {
					seeds = append(seeds, tab.Node(st.nodeOf[t]))
				}
			}
			cands = cands[:0]
			gen++
			st.bfs(seeds, func(node, lv int32) bool {
				l := tab.Local(node)
				if l < 0 || st.taskAt[l] < 0 {
					return true
				}
				b := cl.of[st.taskAt[l]]
				if b == a || tried[b] == gen {
					return true
				}
				tried[b] = gen
				if len(cl.members(b)) != size {
					return true // only equal-cardinality clusters swap 1:1
				}
				cands = append(cands, b)
				return len(cands) < opt.Delta
			})
			// Apply the first improving swap in BFS order. A cluster of
			// at least swapFanOutMembers members scores its candidates
			// on the worker pool, where one evaluation is chunky enough
			// to amortize the hand-off; smaller ones score serially and
			// stop at the first improving swap.
			chosen, chosenDelta := -1, int64(0)
			if deltas != nil && len(cands) > 1 && size >= swapFanOutMembers {
				// The pool's goroutines capture copies: capturing deltas
				// or cands, which this function reassigns, would move
				// them to the heap.
				scores, cs := deltas, cands
				par.ForEachIdx(len(cs), func(i int) { scores[i] = cl.delta(st, a, cs[i], obj) })
				for i, d := range scores[:len(cs)] {
					if d < 0 {
						chosen, chosenDelta = i, d
						break
					}
				}
			} else {
				for i, b := range cands {
					if d := cl.delta(st, a, b, obj); d < 0 {
						chosen, chosenDelta = i, d
						break
					}
				}
			}
			if chosen >= 0 {
				b := cands[chosen]
				cl.applySwap(st, a, b)
				passSwaps++
				totalWH += chosenDelta
				totalGain -= chosenDelta
				for _, u := range gl.Neighbors(int(a)) {
					rekey(u)
				}
				for _, u := range gl.Neighbors(int(b)) {
					rekey(u)
				}
				rekey(b)
			}
		}
		if gl == g {
			ex.Count("wh_passes", 1)
			ex.Count("wh_swaps", passSwaps)
		}
		passGain := passStartWH - totalWH
		if passStartWH == 0 || float64(passGain) < opt.MinPassGain*float64(passStartWH) {
			break
		}
	}
	return totalGain
}

// clusters partitions the fine vertices into the clusters of one
// hierarchy level: of maps each fine vertex to its cluster, the
// members of cluster c, in increasing id order, are
// mem[off[c]:off[c+1]], and pos[t] is the index of t in mem. All four
// slice buf, one arena buffer.
type clusters struct {
	buf, of, off, mem, pos []int32
}

// members returns the fine vertices of cluster c.
func (cl clusters) members(c int32) []int32 { return cl.mem[cl.off[c]:cl.off[c+1]] }

// wh returns the WH (or TH) cluster c incurs: the cost of every
// directed fine edge whose tail lies in c.
func (cl clusters) wh(st *mapState, c int32, obj Objective) int64 {
	var wh int64
	for _, t := range cl.members(c) {
		wh += vertexWH(st.g, st.tab, st.nodeOf, t, obj)
	}
	return wh
}

// delta is the total WH change (doubled-edge accounting) of swapping
// the node sets of equal-cardinality clusters a and b: pairDelta on
// single-member clusters, swapDelta on larger ones.
func (cl clusters) delta(st *mapState, a, b int32, obj Objective) int64 {
	if ma := cl.members(a); len(ma) == 1 {
		return pairDelta(st.g, st.tab, st.nodeOf, ma[0], cl.members(b)[0], obj)
	}
	return cl.swapDelta(st, a, b, obj)
}

// swapDelta computes the exact total WH change (doubled-edge
// accounting) of exchanging the node sets of equal-cardinality
// clusters a and b: member i of a moves to the node of member i of b
// and vice versa. Internal a∪b edges are counted once per direction;
// edges leaving the pair are counted twice (their reverse direction
// changes by the same amount on the symmetric graph). On
// single-member clusters it equals pairDelta. It only reads, so
// concurrent scorers are safe.
func (cl clusters) swapDelta(st *mapState, a, b int32, obj Objective) int64 {
	g, tab, loc := st.g, st.tab, st.nodeOf
	ma, mb := cl.members(a), cl.members(b)
	// newLoc(t): t's allocation index after the swap.
	newLoc := func(t int32) int32 {
		switch c := cl.of[t]; c {
		case a:
			return loc[mb[cl.pos[t]-cl.off[c]]]
		case b:
			return loc[ma[cl.pos[t]-cl.off[c]]]
		}
		return loc[t]
	}
	var d int64
	for _, mem := range [2][]int32{ma, mb} {
		for _, t := range mem {
			nt, ot := tab.DistRow(newLoc(t)), tab.DistRow(loc[t])
			for i := g.Xadj[t]; i < g.Xadj[t+1]; i++ {
				u, w := g.Adj[i], hopCost(g, i, obj)
				if c := cl.of[u]; c == a || c == b {
					// Internal edge: the loop visits both directions.
					d += w * int64(nt[newLoc(u)]-ot[loc[u]])
				} else {
					// External edge: reverse direction changes equally.
					d += 2 * w * int64(nt[loc[u]]-ot[loc[u]])
				}
			}
		}
	}
	return d
}

// applySwap exchanges the node sets of equal-cardinality clusters a
// and b member-wise.
func (cl clusters) applySwap(st *mapState, a, b int32) {
	ma, mb := cl.members(a), cl.members(b)
	for i := range ma {
		la, lb := st.nodeOf[ma[i]], st.nodeOf[mb[i]]
		st.place(ma[i], lb)
		st.place(mb[i], la)
	}
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
