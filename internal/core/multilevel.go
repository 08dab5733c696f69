package core

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/routecache"
)

// This file implements the multilevel variant of the paper's WH
// refinement that §III-B sketches: "With slight modifications, it can
// perform the refinement on the finer level task vertices or in a
// multilevel fashion from coarser to finer levels."
//
// MapUML coarsens the (supertask) graph with heavy-edge matching,
// places the coarsest clusters onto node regions grown by BFS over
// the topology, and then refines from the coarsest level to the
// finest: at every level a Kernighan–Lin pass swaps the node sets of
// two equal-cardinality clusters when that lowers WH, and the finest
// level runs Algorithm 2 verbatim.

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

// clusterSets returns, for hierarchy level l, the level-0 membership:
// cl0 maps each fine vertex to its level-l cluster and members lists
// the fine vertices of each cluster in increasing id order.
func clusterSets(levels []mlLevel, l int) (cl0 []int32, members [][]int32) {
	n0 := levels[0].g.N()
	cl0 = make([]int32, n0)
	for v := range cl0 {
		cl0[v] = int32(v)
	}
	for i := 0; i < l; i++ {
		cmap := levels[i].cmap
		for v := range cl0 {
			cl0[v] = cmap[cl0[v]]
		}
	}
	members = make([][]int32, levels[l].g.N())
	for v := 0; v < n0; v++ {
		c := cl0[v]
		members[c] = append(members[c], int32(v))
	}
	return cl0, members
}

// placeCoarsest assigns every coarsest-level cluster a region of
// |members| empty allocated nodes grown by BFS over the topology, in
// Algorithm 1's order and from the node GETBESTNODE picks for the
// cluster: a mapState over gl marks every node of a placed cluster's
// region with the cluster and holds the region's first node as the
// cluster's own. It fills loc with the allocation index of every fine
// vertex.
func placeCoarsest(gl *graph.Graph, members [][]int32, tab *routecache.Table, loc []int32, ex *Exec) {
	st := newMapState(gl, tab, ex)
	defer st.release()
	greedyOrder(st, GreedyOptions{Exec: ex}, func(c, seed int32) {
		// Take the len(members[c]) empty allocated nodes nearest the
		// seed's node (BFS order, the empty seed first) and assign the
		// cluster's members to them in that order.
		mem := members[c]
		got := 0
		take := func(l int32) {
			if got == 0 {
				st.nodeOf[c] = l
			}
			st.taskAt[l] = c
			loc[mem[got]] = l
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

// clusterRefineState carries the per-level swap refinement context.
type clusterRefineState struct {
	g0      *graph.Graph // fine (level-0) graph
	tab     *routecache.Table
	nodeOf  []int32   // fine vertex -> allocation index (mutated)
	taskAt  []int32   // allocation index -> fine vertex
	cl0     []int32   // fine vertex -> cluster at the current level
	members [][]int32 // cluster -> fine vertices (sorted by id)

	triedMark []int32 // generation marks: cluster already tried?
	triedGen  int32
}

// pairScratch is the generation-marked swap-pair bookkeeping of one
// swapDelta evaluation. Candidate scoring fans swaps out over the
// worker pool, and the marks are mutated per evaluation, so every
// concurrent scorer owns its own pairScratch.
type pairScratch struct {
	inPair  []int32 // generation marks: fine vertex in the swap pair?
	pairPos []int32 // index of the vertex within its cluster's members
	gen     int32
}

// clusterWH returns the WH incurred by a cluster: the weighted hops
// of every directed fine edge whose tail lies in the cluster.
func (cr *clusterRefineState) clusterWH(c int32, obj Objective) int64 {
	var wh int64
	g := cr.g0
	for _, t := range cr.members[c] {
		row := cr.tab.DistRow(cr.nodeOf[t])
		for i := g.Xadj[t]; i < g.Xadj[t+1]; i++ {
			wh += hopCost(g, i, obj) * int64(row[cr.nodeOf[g.Adj[i]]])
		}
	}
	return wh
}

// swapDelta computes the exact total WH change (doubled-edge
// accounting) of exchanging the node sets of clusters a and b:
// member i of a moves to the node of member i of b and vice versa.
// Internal a∪b edges are counted once per direction; edges leaving
// the pair are counted twice (their reverse direction changes by the
// same amount on the symmetric graph). It reads only shared state and
// mutates only ps, so concurrent scorers with distinct ps are safe.
func (cr *clusterRefineState) swapDelta(ps *pairScratch, a, b int32, obj Objective) int64 {
	g := cr.g0
	ma, mb := cr.members[a], cr.members[b]
	ps.gen++
	gen := ps.gen
	for i, t := range ma {
		ps.inPair[t] = gen
		ps.pairPos[t] = int32(i)
	}
	for i, t := range mb {
		ps.inPair[t] = gen
		ps.pairPos[t] = int32(i)
	}
	// newNode(t): position after the hypothetical swap.
	newNode := func(t int32) int32 {
		if ps.inPair[t] != gen {
			return cr.nodeOf[t]
		}
		if cr.cl0[t] == a {
			return cr.nodeOf[mb[ps.pairPos[t]]]
		}
		return cr.nodeOf[ma[ps.pairPos[t]]]
	}
	var d int64
	scan := func(mem []int32) {
		for _, t := range mem {
			nt, ot := cr.tab.DistRow(newNode(t)), cr.tab.DistRow(cr.nodeOf[t])
			for i := g.Xadj[t]; i < g.Xadj[t+1]; i++ {
				u := g.Adj[i]
				w := hopCost(g, i, obj)
				if ps.inPair[u] == gen {
					// Internal edge: the loop visits both directions.
					d += w * int64(nt[newNode(u)]-ot[cr.nodeOf[u]])
				} else {
					// External edge: reverse direction changes equally.
					d += 2 * w * int64(nt[cr.nodeOf[u]]-ot[cr.nodeOf[u]])
				}
			}
		}
	}
	scan(ma)
	scan(mb)
	return d
}

// applySwap exchanges the node sets of equal-cardinality clusters a
// and b member-wise.
func (cr *clusterRefineState) applySwap(a, b int32) {
	ma, mb := cr.members[a], cr.members[b]
	for i := range ma {
		na, nb := cr.nodeOf[ma[i]], cr.nodeOf[mb[i]]
		cr.nodeOf[ma[i]], cr.nodeOf[mb[i]] = nb, na
		cr.taskAt[na], cr.taskAt[nb] = mb[i], ma[i]
	}
}

// refineClusterLevel runs one multilevel refinement stage: KL-style
// swaps of equal-cardinality level-l clusters, candidate clusters
// discovered by BFS over the topology from the nodes of the popped
// cluster's neighbours (the level-l analogue of Algorithm 2). It
// mutates loc, each fine vertex's allocation index, and returns the
// total WH gain achieved (positive = improvement, doubled-edge
// accounting).
func refineClusterLevel(g0, gl *graph.Graph, cl0 []int32, members [][]int32, tab *routecache.Table, loc []int32, opt RefineOptions) int64 {
	opt = opt.withDefaults()
	ex := opt.Exec
	ar := ex.arenaOf()
	par := ex.par()
	nc := gl.N()
	st := newMapState(gl, tab, ex) // BFS scratch
	defer st.release()
	cr := &clusterRefineState{
		g0:        g0,
		tab:       tab,
		nodeOf:    loc,
		taskAt:    ar.Int32s(tab.Len()),
		cl0:       cl0,
		members:   members,
		triedMark: ar.Int32s(nc),
	}
	defer func() {
		ar.PutInt32s(cr.taskAt)
		ar.PutInt32s(cr.triedMark)
	}()
	for i := range cr.taskAt {
		cr.taskAt[i] = -1
	}
	for t := 0; t < g0.N(); t++ {
		cr.taskAt[loc[t]] = int32(t)
	}

	// Per-cluster WH values: clusterWH reads only the shared placement,
	// so the per-pass reloads fan out over the worker pool; the serial
	// fill below keeps heap order identical at every worker count.
	whVals := ar.Int64s(nc)
	defer ar.PutInt64s(whVals)
	loadWH := func() {
		par.ForEachIdx(nc, func(c int) { whVals[c] = cr.clusterWH(int32(c), opt.Objective) })
	}
	loadWH()
	var totalWH int64
	for c := 0; c < nc; c++ {
		totalWH += whVals[c]
	}
	var totalGain int64
	heap := ar.MaxHeap(nc)
	defer ar.PutMaxHeap(heap)
	var seeds []int32

	// Swap-candidate scoring scratch: parallel scoring slot i owns
	// scratch[i] for the whole refine call, the serial path scratch[0]
	// (generation marks make reuse across pops correct without
	// re-zeroing — borrowing fresh buffers per candidate would cost
	// O(n) zeroing against O(deg) useful work).
	scratch := make([]*pairScratch, 1)
	if par.NumWorkers() > 1 {
		scratch = make([]*pairScratch, opt.Delta)
	}
	for i := range scratch {
		scratch[i] = &pairScratch{inPair: ar.Int32s(g0.N()), pairPos: ar.Int32s(g0.N())}
	}
	defer func() {
		for _, ps := range scratch {
			ar.PutInt32s(ps.inPair)
			ar.PutInt32s(ps.pairPos)
		}
	}()
	cands := make([]int32, 0, opt.Delta)
	deltas := make([]int64, opt.Delta)

	for pass := 0; pass < opt.MaxPasses; pass++ {
		if ex.cancelled() {
			break
		}
		passStart := totalWH
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
			cwh := int32(ci)
			seeds = seeds[:0]
			for _, u := range gl.Neighbors(int(cwh)) {
				for _, t := range members[u] {
					seeds = append(seeds, tab.Node(loc[t]))
				}
			}
			if len(seeds) == 0 {
				continue
			}
			// Collect up to Delta equal-cardinality candidates in BFS
			// order — the exact prefix the serial algorithm would have
			// tried — then score them (in parallel when workers are
			// free) and apply the first improving swap in that order.
			cands = cands[:0]
			cr.triedGen++
			st.bfs(seeds, func(node, lv int32) bool {
				l := tab.Local(node)
				if l < 0 || cr.taskAt[l] < 0 {
					return true
				}
				t := cr.taskAt[l]
				b := cl0[t]
				if b == cwh || cr.triedMark[b] == cr.triedGen {
					return true
				}
				cr.triedMark[b] = cr.triedGen
				if len(members[b]) != len(members[cwh]) {
					return true // only equal-cardinality clusters swap 1:1
				}
				cands = append(cands, b)
				return len(cands) < opt.Delta
			})
			chosen := -1
			var chosenDelta int64
			// Fan scoring out only when one evaluation is chunky
			// enough to amortize the hand-off: swapDelta walks every
			// member's adjacency, so small clusters (the fine
			// levels) score faster serially.
			if len(scratch) > 1 && len(cands) > 1 && len(members[cwh]) >= 16 {
				par.ForEachIdx(len(cands), func(i int) {
					deltas[i] = cr.swapDelta(scratch[i], cwh, cands[i], opt.Objective)
				})
				for i := range cands {
					if deltas[i] < 0 {
						chosen, chosenDelta = i, deltas[i]
						break
					}
				}
			} else {
				for i, b := range cands {
					if d := cr.swapDelta(scratch[0], cwh, b, opt.Objective); d < 0 {
						chosen, chosenDelta = i, d
						break
					}
				}
			}
			if chosen >= 0 {
				b := cands[chosen]
				cr.applySwap(cwh, b)
				totalWH += chosenDelta
				totalGain -= chosenDelta
				for _, u := range gl.Neighbors(int(cwh)) {
					if heap.Contains(int(u)) {
						heap.Update(int(u), cr.clusterWH(u, opt.Objective))
					}
				}
				for _, u := range gl.Neighbors(int(b)) {
					if heap.Contains(int(u)) {
						heap.Update(int(u), cr.clusterWH(u, opt.Objective))
					}
				}
				if heap.Contains(int(b)) {
					heap.Update(int(b), cr.clusterWH(b, opt.Objective))
				}
			}
		}
		passGain := passStart - totalWH
		if passStart == 0 || float64(passGain) < opt.MinPassGain*float64(passStart) {
			break
		}
	}
	return totalGain
}

// MapUML maps the symmetric task graph g one-to-one onto tab's
// allocated nodes with the multilevel scheme: heavy-edge-matching
// hierarchy, BFS region placement of the coarsest clusters,
// cluster-swap WH refinement from the coarsest level to the finest,
// and Algorithm 2 on the finest level. It returns the task→node
// mapping. ex supplies the solve's scratch arena, worker pool and
// cancellation; nil runs serial with fresh allocations.
func MapUML(g *graph.Graph, tab *routecache.Table, ex *Exec) []int32 {
	opt := RefineOptions{Exec: ex}
	n := g.N()
	if tab.Len() < n {
		panic("core: fewer allocated nodes than tasks")
	}
	levels := mlHierarchy(g, umlCoarsenTo)
	L := len(levels) - 1
	ex.Count("coarse_levels", int64(L))
	if L == 0 {
		// Graph already at/below the coarsest size: plain UG + WH.
		nodeOf := GreedyBest(g, tab, WeightedHops, ex)
		RefineWH(g, tab, nodeOf, opt)
		return nodeOf
	}
	loc := make([]int32, n)
	cl0, members := clusterSets(levels, L)
	placeCoarsest(levels[L].g, members, tab, loc, ex)
	for l := L; l >= 1; l-- {
		if ex.cancelled() {
			break
		}
		cl0, members = clusterSets(levels, l)
		refineClusterLevel(g, levels[l].g, cl0, members, tab, loc, opt)
	}
	nodeOf := toNodes(tab, loc)
	RefineWH(g, tab, nodeOf, opt)
	return nodeOf
}

// toNodes returns the node ids of the allocation indices loc.
func toNodes(tab *routecache.Table, loc []int32) []int32 {
	nodeOf := make([]int32, len(loc))
	for i, l := range loc {
		nodeOf[i] = tab.Node(l)
	}
	return nodeOf
}
