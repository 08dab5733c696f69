// Package core implements the paper's contribution: the three fast,
// high-quality topology-aware task mapping algorithms of §III.
//
//   - Greedy mapping (Algorithm 1) grows a mapping from the task with
//     the maximum send+receive volume, placing each task on the best
//     allocated node found by an early-exit BFS over the topology.
//   - WH refinement (Algorithm 2) is a Kernighan–Lin style swap
//     refinement of the weighted-hop metric.
//   - Congestion refinement (Algorithm 3) lowers the maximum link
//     congestion (volume-based MC or message-based MMC) with minimal
//     WH damage, exploiting static routing.
//
// All three operate on a symmetric coarse task graph whose vertices
// are supertasks (one per allocated node, produced by the grouping
// step in package taskgraph) and on the allocation's route table
// (routecache.Table). Their interfaces take and return node ids;
// inside, a task's node is held as its allocation index, so every
// distance is a read from one of the table's distance rows.
package core

import (
	"repro/internal/ds"
	"repro/internal/graph"
	"repro/internal/routecache"
)

// Objective selects the hop metric the greedy mapper and the WH
// refinement minimize: volume-weighted hops (WH) or plain hops (TH).
// The paper presents WH; "their adaptation for TH ... is trivial"
// (§III) and provided here.
type Objective int

// Objectives.
const (
	// WeightedHops minimizes WH = sum dilation*volume.
	WeightedHops Objective = iota
	// TotalHops minimizes TH = sum dilation.
	TotalHops
)

// GreedyOptions configures Algorithm 1.
type GreedyOptions struct {
	// NBFS is the number of BFS-seeded far-task selections performed
	// after the initial MSRV seed (§III-A; the implementation counts
	// selections after t0 so NBFS=0 and NBFS=1 give the two distinct
	// mappings the paper generates).
	NBFS int
	// Objective selects WH (default) or TH.
	Objective Objective
	// NoEarlyExit disables GETBESTNODE's early-exit mechanism and
	// evaluates every empty allocated node instead of only the first
	// BFS level containing one. The paper credits the early exit for
	// the algorithm's speed ("in practice it runs faster thanks to
	// the early exits", §III-A); this switch exists for the ablation
	// benchmark.
	NoEarlyExit bool
	// Exec supplies the solve's scratch arena and cancellation; nil
	// runs serial with fresh allocations.
	Exec *Exec
}

// Greedy runs Algorithm 1: it maps each vertex of the symmetric task
// graph g onto a distinct allocated node of tab and returns the
// task→node mapping. tab must hold at least g.N() nodes.
func Greedy(g *graph.Graph, tab *routecache.Table, opt GreedyOptions) []int32 {
	if tab.Len() < g.N() {
		panic("core: fewer allocated nodes than tasks")
	}
	st := newMapState(g, tab, opt.Exec)
	defer st.release()
	greedyOrder(st, opt, st.place)
	out := make([]int32, g.N())
	st.nodesInto(out)
	return out
}

// greedyOrder is Algorithm 1's loop over st's graph: it picks the
// tasks in the paper's order — the maximum send+receive volume task
// first, then NBFS BFS-seeded far tasks, then the task most connected
// to the mapped set, a new component's maximum-volume task when none
// is connected — and hands each to place with the allocation index
// GETBESTNODE chose (the first task gets index 0). place must record
// the task in st: Greedy places it on that node, UML grows its
// cluster's region from there.
func greedyOrder(st *mapState, opt GreedyOptions, place func(t, loc int32)) {
	g, ex := st.g, opt.Exec
	n := g.N()
	ar := ex.arenaOf()
	conn := ar.MaxHeap(n)
	// Total send+receive volume per task: the MSRV start and the BFS
	// tie-break both use it.
	volume := ar.Int64s(n)
	defer func() {
		ar.PutMaxHeap(conn)
		ar.PutInt64s(volume)
	}()
	for v := 0; v < n; v++ {
		for _, w := range g.Weights(v) {
			volume[v] += w
		}
	}
	unmapped := func(v int32) bool { return st.nodeOf[v] < 0 }
	mapTask := func(t int32, loc int32) {
		place(t, loc)
		conn.Remove(int(t))
		wt := g.Weights(int(t))
		for i, u := range g.Neighbors(int(t)) {
			if unmapped(u) {
				conn.Add(int(u), wt[i]) // conn.update(tn, c(t, tn))
			}
		}
	}

	// Map t_MSRV to an arbitrary (first allocated) node.
	mapTask(maxVolumeUnmapped(volume, unmapped), 0)
	var mappedSeeds []int32
	for nMapped := 1; nMapped < n; nMapped++ {
		if ex.cancelled() {
			// Bail early but keep the mapping complete: the remaining
			// tasks take the lowest free allocated nodes in task order
			// (the engine discards the result, downstream refinement
			// must not see a half-filled nodeOf).
			next := int32(0)
			for t := int32(0); t < int32(n); t++ {
				if unmapped(t) {
					for st.taskAt[next] >= 0 {
						next++
					}
					place(t, next)
				}
			}
			return
		}
		var tbest int32
		if nMapped <= opt.NBFS {
			// Farthest unmapped task from the mapped set, ties in
			// favour of higher communication volume.
			mappedSeeds = mappedSeeds[:0]
			for v := int32(0); v < int32(n); v++ {
				if !unmapped(v) {
					mappedSeeds = append(mappedSeeds, v)
				}
			}
			far, _, ok := graph.FarthestVertex(g, mappedSeeds, unmapped, volume)
			if ok {
				tbest = far
			} else {
				tbest = maxVolumeUnmapped(volume, unmapped)
			}
		} else if conn.Len() > 0 {
			t, _ := conn.Pop()
			tbest = int32(t)
		} else {
			// Disconnected component: take its max-volume task.
			tbest = maxVolumeUnmapped(volume, unmapped)
		}
		if opt.NoEarlyExit {
			mapTask(tbest, st.bestNodeExhaustive(tbest, opt.Objective))
		} else {
			mapTask(tbest, st.bestNode(tbest, opt.Objective))
		}
	}
}

// GreedyBest runs Algorithm 1 with NBFS=0 and NBFS=1 and returns the
// mapping with the lower objective value, as the paper's
// implementation does (§III-A). Under an execution context the two
// independent greedy runs fork onto the solve's worker pool (they
// share nothing but read-only inputs and the concurrency-safe arena),
// and the winner is chosen afterwards exactly as the serial code
// does — so the result is identical at every worker count; a nil ex
// runs both serially.
func GreedyBest(g *graph.Graph, tab *routecache.Table, objective Objective, ex *Exec) []int32 {
	var m0, m1 []int32
	ex.par().Fork(
		func() { m0 = Greedy(g, tab, GreedyOptions{NBFS: 0, Objective: objective, Exec: ex}) },
		func() { m1 = Greedy(g, tab, GreedyOptions{NBFS: 1, Objective: objective, Exec: ex}) },
	)
	ex.Count("greedy_attempts", 2)
	if objectiveValue(g, tab, m1, objective) < objectiveValue(g, tab, m0, objective) {
		return m1
	}
	return m0
}

// maxVolumeUnmapped returns the unmapped task of maximum volume, ties
// to the lowest id.
func maxVolumeUnmapped(volume []int64, unmapped func(int32) bool) int32 {
	var t int32 = -1
	var best int64 = -1
	for v := range volume {
		if unmapped(int32(v)) && volume[v] > best {
			best, t = volume[v], int32(v)
		}
	}
	return t
}

// objectiveValue evaluates WH or TH of a complete task→node mapping
// onto tab's allocated nodes over the symmetric coarse graph (each
// undirected edge counted twice, consistently for comparisons).
func objectiveValue(g *graph.Graph, tab *routecache.Table, nodeOf []int32, obj Objective) int64 {
	loc := make([]int32, len(nodeOf))
	for v, m := range nodeOf {
		loc[v] = tab.Local(m)
	}
	var total int64
	for v := range int32(g.N()) {
		total += vertexWH(g, tab, loc, v, obj)
	}
	return total
}

// vertexWH is the WH (or TH) of v's directed edges under the placement
// loc, held in allocation indices of tab.
func vertexWH(g *graph.Graph, tab *routecache.Table, loc []int32, v int32, obj Objective) int64 {
	row := tab.DistRow(loc[v])
	var wh int64
	for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
		wh += hopCost(g, i, obj) * int64(row[loc[g.Adj[i]]])
	}
	return wh
}

// mapState holds the placement bookkeeping shared by Algorithm 1's
// GETBESTNODE and the refinement algorithms' BFS candidate searches.
// Placements are allocation indices of tab; the BFS walks the
// topology graph in node ids and maps each visited node through
// tab.Local. Its buffers are borrowed from the solve's arena when one
// is supplied; release returns them. A mapState is single-goroutine
// state — parallel subtasks each borrow their own.
type mapState struct {
	g      *graph.Graph
	tab    *routecache.Table
	ex     *Exec
	nodeOf []int32 // task -> allocation index (-1 while unmapped)
	taskAt []int32 // allocation index -> task (-1 when empty)

	// BFS scratch over the topology's node ids, with generation
	// stamps so repeated traversals do not pay O(nodes) resets.
	visitGen  int32
	visitMark []int32
	level     []int32
	queue     *ds.Queue
	nbBuf     []int32
	seedBuf   []int32
}

func newMapState(g *graph.Graph, tab *routecache.Table, ex *Exec) *mapState {
	ar := ex.arenaOf()
	st := &mapState{
		g:         g,
		tab:       tab,
		ex:        ex,
		nodeOf:    ar.Int32s(g.N()),
		taskAt:    ar.Int32s(tab.Len()),
		visitMark: ar.Int32s(tab.Nodes()),
		level:     ar.Int32s(tab.Nodes()),
		queue:     ar.Queue(),
	}
	for i := range st.nodeOf {
		st.nodeOf[i] = -1
	}
	for i := range st.taskAt {
		st.taskAt[i] = -1
	}
	return st
}

// release returns the state's buffers to the solve's arena. The
// mapState must not be used afterwards.
func (st *mapState) release() {
	ar := st.ex.arenaOf()
	ar.PutInt32s(st.nodeOf)
	ar.PutInt32s(st.taskAt)
	ar.PutInt32s(st.visitMark)
	ar.PutInt32s(st.level)
	ar.PutQueue(st.queue)
	st.nodeOf, st.taskAt, st.visitMark, st.level, st.queue = nil, nil, nil, nil, nil
}

// place puts task t on allocation index loc.
func (st *mapState) place(t, loc int32) {
	st.nodeOf[t] = loc
	st.taskAt[loc] = t
}

// placeNodes places every task t on node nodeOf[t], which must be
// allocated.
func (st *mapState) placeNodes(nodeOf []int32) {
	for t, m := range nodeOf {
		st.place(int32(t), st.tab.Local(m))
	}
}

// nodesInto writes every task's node id into nodeOf.
func (st *mapState) nodesInto(nodeOf []int32) {
	for t, l := range st.nodeOf {
		nodeOf[t] = st.tab.Node(l)
	}
}

// placedCost is one mapped neighbour of a task being placed: its
// allocation index and the weight its hop distance costs.
type placedCost struct {
	loc  int32
	cost int64
}

// placedNeighbours lists t's mapped neighbours with their costs under
// obj.
func (st *mapState) placedNeighbours(t int32, obj Objective) []placedCost {
	var out []placedCost
	wt := st.g.Weights(int(t))
	for i, u := range st.g.Neighbors(int(t)) {
		if l := st.nodeOf[u]; l >= 0 {
			c := wt[i]
			if obj == TotalHops {
				c = 1
			}
			out = append(out, placedCost{l, c})
		}
	}
	return out
}

// costAt is the WH (or TH) placing a task at allocation index loc
// adds toward its placed neighbours nb: one distance row read.
func (st *mapState) costAt(loc int32, nb []placedCost) int64 {
	row := st.tab.DistRow(loc)
	var c int64
	for _, s := range nb {
		c += s.cost * int64(row[s.loc])
	}
	return c
}

// bestNode implements GETBESTNODE (§III-A): a BFS over the topology
// graph from the nodes hosting t's mapped neighbours, stopping at the
// first level that contains empty allocated nodes and returning the
// one that adds the least WH (or TH), ties to the lowest node id.
// Tasks with no mapped neighbour get one of the farthest allocated
// empty nodes from the non-empty nodes instead. It returns an
// allocation index.
func (st *mapState) bestNode(t int32, obj Objective) int32 {
	nbPlaced := st.placedNeighbours(t, obj)
	if len(nbPlaced) == 0 {
		return st.farthestEmptyNode()
	}
	seeds := make([]int32, len(nbPlaced))
	for i, s := range nbPlaced {
		seeds[i] = st.tab.Node(s.loc)
	}
	var best, bestLoc int32 = -1, -1
	var bestCost int64
	stopLevel := int32(-1)
	st.bfs(seeds, func(node, lv int32) bool {
		if stopLevel >= 0 && lv > stopLevel {
			return false // early exit: a deeper level started
		}
		if l := st.tab.Local(node); l >= 0 && st.taskAt[l] < 0 {
			stopLevel = lv
			c := st.costAt(l, nbPlaced)
			if best < 0 || c < bestCost || (c == bestCost && node < best) {
				best, bestLoc, bestCost = node, l, c
			}
		}
		return true
	})
	if best < 0 {
		// Every allocated node reachable is full (should not happen
		// with |alloc| >= |tasks|), fall back to any empty one.
		return st.firstEmpty()
	}
	return bestLoc
}

// bestNodeExhaustive is the no-early-exit variant of bestNode: it
// scores every empty allocated node (ablation baseline).
func (st *mapState) bestNodeExhaustive(t int32, obj Objective) int32 {
	nbPlaced := st.placedNeighbours(t, obj)
	if len(nbPlaced) == 0 {
		return st.farthestEmptyNode()
	}
	var best, bestLoc int32 = -1, -1
	var bestCost int64
	for l, task := range st.taskAt {
		if task >= 0 {
			continue
		}
		m := st.tab.Node(int32(l))
		c := st.costAt(int32(l), nbPlaced)
		if best < 0 || c < bestCost || (c == bestCost && m < best) {
			best, bestLoc, bestCost = m, int32(l), c
		}
	}
	if best < 0 {
		panic("core: no empty allocated node")
	}
	return bestLoc
}

// farthestEmptyNode returns an empty allocated node at maximum BFS
// distance from the set of non-empty nodes, ties to the lowest node
// id (used for tasks with no mapped neighbours, e.g. new components or
// BFS seeds). It returns an allocation index.
func (st *mapState) farthestEmptyNode() int32 {
	var seeds []int32
	for l, task := range st.taskAt {
		if task >= 0 {
			seeds = append(seeds, st.tab.Node(int32(l)))
		}
	}
	if len(seeds) == 0 {
		return 0
	}
	var best, bestLoc int32 = -1, -1
	bestLevel := int32(-1)
	st.bfs(seeds, func(node, lv int32) bool {
		if l := st.tab.Local(node); l >= 0 && st.taskAt[l] < 0 && lv >= bestLevel {
			if lv > bestLevel || node < best {
				best, bestLoc = node, l
			}
			bestLevel = lv
		}
		return true
	})
	if best < 0 {
		return st.firstEmpty()
	}
	return bestLoc
}

// firstEmpty returns the lowest empty allocation index.
func (st *mapState) firstEmpty() int32 {
	for l, task := range st.taskAt {
		if task < 0 {
			return int32(l)
		}
	}
	panic("core: no empty allocated node")
}

// swapPartners collects into cands[:0] up to delta swap partners of
// task t, the candidates Algorithm 3 examines: the tasks on the
// allocated nodes other than t's, in the order a BFS over the topology
// from the nodes of t's neighbours reaches them. Algorithm 2's walk in
// refineLevel reaches the same tasks in the same order on single-task
// clusters, and also filters clusters by size.
func (st *mapState) swapPartners(t int32, delta int, cands []int32) []int32 {
	st.seedBuf = st.seedBuf[:0]
	for _, u := range st.g.Neighbors(int(t)) {
		st.seedBuf = append(st.seedBuf, st.tab.Node(st.nodeOf[u]))
	}
	cands = cands[:0]
	st.bfs(st.seedBuf, func(node, lv int32) bool {
		l := st.tab.Local(node)
		if l < 0 || l == st.nodeOf[t] || st.taskAt[l] < 0 {
			return true
		}
		cands = append(cands, st.taskAt[l])
		return len(cands) < delta
	})
	return cands
}

// bfs runs a breadth-first traversal of the topology graph from the
// seed nodes (level 0), invoking visit in BFS order until it returns
// false. Seeds are visited too.
func (st *mapState) bfs(seeds []int32, visit func(node, level int32) bool) {
	st.visitGen++
	gen := st.visitGen
	st.queue.Clear()
	for _, s := range seeds {
		if st.visitMark[s] == gen {
			continue
		}
		st.visitMark[s] = gen
		st.level[s] = 0
		st.queue.Push(int(s))
	}
	for st.queue.Len() > 0 {
		v := int32(st.queue.Pop())
		if !visit(v, st.level[v]) {
			return
		}
		st.nbBuf = st.tab.NeighborNodes(int(v), st.nbBuf[:0])
		for _, u := range st.nbBuf {
			if st.visitMark[u] != gen {
				st.visitMark[u] = gen
				st.level[u] = st.level[v] + 1
				st.queue.Push(int(u))
			}
		}
	}
}
