package core

import (
	"repro/internal/ds"
	"repro/internal/graph"
	"repro/internal/routecache"
	"repro/internal/torus"
)

// CongestionKind selects which congestion Algorithm 3 minimizes.
type CongestionKind int

// Congestion kinds.
const (
	// VolumeCongestion refines MC: per-link volume divided by link
	// bandwidth (the paper's primary variant). Edge weights are
	// communication volumes.
	VolumeCongestion CongestionKind = iota
	// MessageCongestion refines MMC: messages per link, ignoring
	// bandwidth ("adapting this algorithm to refine MMC is trivial",
	// §III-C). Edge weights are message multiplicities — pass a
	// message-count-weighted graph (taskgraph.CoarseMessageGraph) for
	// coarse supertask graphs, or a unit-weight graph when every edge
	// is one message.
	MessageCongestion
)

// congState carries the link-load bookkeeping of Algorithm 3: exact
// per-link loads under static routing, a max-heap of scaled
// congestion keys, and the commTasks structure mapping each link to
// the directed task-graph edges routed through it. Placements are the
// allocation indices of st; static routes are read from tab.
type congState struct {
	g    *graph.Graph
	tab  *routecache.Table
	st   *mapState
	kind CongestionKind

	// multipath enables the §III-C dynamic-routing approximation:
	// when non-nil, loads are expectations over all minimal
	// dimension-ordered routes (fixed point in units of 1/RouteScale)
	// instead of exact loads on the single static route.
	multipath torus.MultipathTopology

	scale     []int64 // per link: congestion = load*scale (fixed point 1/bw)
	load      []int64 // per link: volume (or message count)
	congHeap  *ds.IndexedMaxHeap
	linkEdges []ds.IntSet // per link: directed edge ids crossing it
	edgeOwner []int32     // directed edge id -> source task
	sumKeys   int64       // sum of keys over used links
	usedLinks int
	revEdge   []int32 // directed edge id -> id of the reverse edge

	// Pre-bound route-link visitors of commit's edge-set moves (a
	// closure handed to forEachRouteLink per edge would allocate once
	// per edge), parameterized through curEdge.
	addFn   func(l int32, mult int64) // linkEdges[l].Add(curEdge)
	delFn   func(l int32, mult int64) // linkEdges[l].Delete(curEdge)
	curEdge int
}

func newCongState(g *graph.Graph, tab *routecache.Table, st *mapState, kind CongestionKind, multipath torus.MultipathTopology) *congState {
	ar := st.ex.arenaOf()
	links := tab.Links()
	cs := &congState{
		g:         g,
		tab:       tab,
		st:        st,
		kind:      kind,
		multipath: multipath,
		scale:     ar.Int64s(links),
		load:      ar.Int64s(links),
		congHeap:  ar.MaxHeap(links),
		linkEdges: make([]ds.IntSet, links),
		edgeOwner: ar.Int32s(g.M()),
		revEdge:   ar.Int32s(g.M()),
	}
	cs.addFn = func(l int32, _ int64) { cs.linkEdges[l].Add(cs.curEdge) }
	cs.delFn = func(l int32, _ int64) { cs.linkEdges[l].Delete(cs.curEdge) }
	// Fixed-point congestion scale: proportional to 1/bw, normalized
	// so the fastest link gets 1024. Message congestion ignores
	// bandwidth (unit links).
	maxBW := 0.0
	for l := 0; l < links; l++ {
		if bw := tab.LinkBW(l); bw > maxBW {
			maxBW = bw
		}
	}
	for l := 0; l < links; l++ {
		if kind == MessageCongestion {
			cs.scale[l] = 1
		} else {
			cs.scale[l] = int64(1024 * maxBW / tab.LinkBW(l))
		}
	}
	for v := 0; v < g.N(); v++ {
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			cs.edgeOwner[i] = int32(v)
		}
	}
	// Reverse-edge ids: the symmetric graph stores (u,v) and (v,u);
	// adjacency lists are sorted, so the reverse is found by binary
	// search.
	for u := 0; u < g.N(); u++ {
		for i := g.Xadj[u]; i < g.Xadj[u+1]; i++ {
			v := g.Adj[i]
			lo, hi := g.Xadj[v], g.Xadj[v+1]
			cs.revEdge[i] = -1
			for lo < hi {
				mid := (lo + hi) / 2
				if g.Adj[mid] < int32(u) {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo < g.Xadj[v+1] && g.Adj[lo] == int32(u) {
				cs.revEdge[i] = lo
			}
		}
	}
	// Route every directed edge and accumulate loads.
	for v := 0; v < g.N(); v++ {
		a := st.nodeOf[v]
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			b := st.nodeOf[g.Adj[i]]
			if a == b {
				continue
			}
			w := cs.edgeLoad(int(i))
			cs.forEachRouteLink(a, b, func(l int32, mult int64) {
				cs.load[l] += w * mult
				cs.linkEdges[l].Add(int(i))
			})
		}
	}
	for l := 0; l < links; l++ {
		key := cs.load[l] * cs.scale[l]
		cs.congHeap.Push(l, key)
		if cs.load[l] > 0 {
			cs.usedLinks++
			cs.sumKeys += key
		}
	}
	return cs
}

// release returns the state's arena-backed buffers.
func (cs *congState) release() {
	ar := cs.st.ex.arenaOf()
	ar.PutInt64s(cs.scale)
	ar.PutInt64s(cs.load)
	ar.PutMaxHeap(cs.congHeap)
	ar.PutInt32s(cs.edgeOwner)
	ar.PutInt32s(cs.revEdge)
	cs.scale, cs.load, cs.congHeap, cs.edgeOwner, cs.revEdge = nil, nil, nil, nil, nil
}

// edgeLoad is the routed load of directed edge i: its weight, read as
// a volume for MC and as a message multiplicity for MMC.
func (cs *congState) edgeLoad(i int) int64 {
	return cs.g.EdgeWeight(i)
}

// forEachRouteLink invokes fn(link, mult) for every (route, link)
// pair of a message between allocation indices a→b. Static routing
// yields the table's static route with mult 1; the dynamic-routing
// approximation yields every minimal dimension-ordered route with mult
// RouteScale/P, so a link's accumulated load is RouteScale times its
// expected load. The two modes differ by a constant factor per mode,
// which comparisons never see. a != b must hold. The commit and the
// concurrent swap scorers share it: the table is read-only and
// ForEachMinimalRoute implementations use call-local state only, so
// concurrent callers are safe.
func (cs *congState) forEachRouteLink(a, b int32, fn func(l int32, mult int64)) {
	tab, multipath := cs.tab, cs.multipath
	if multipath == nil {
		for _, l := range tab.RouteLinks(a, b) {
			fn(l, 1)
		}
		return
	}
	na, nb := int(tab.Node(a)), int(tab.Node(b))
	p := int64(multipath.NumMinimalRoutes(na, nb))
	scale := multipath.RouteScale()
	if p <= 0 || scale%p != 0 {
		panic("core: topology RouteScale not divisible by its route count")
	}
	mult := scale / p
	multipath.ForEachMinimalRoute(na, nb, func(route []int32) {
		for _, l := range route {
			fn(l, mult)
		}
	})
}

// usedShift is the change in the used-link count when a link's load
// moves from oldLoad to newLoad. Loads are sums of positive volumes,
// never negative, so a link's key changes by exactly its load delta
// times its scale, used or not.
func usedShift(oldLoad, newLoad int64) int {
	switch {
	case oldLoad == 0 && newLoad > 0:
		return 1
	case oldLoad > 0 && newLoad == 0:
		return -1
	}
	return 0
}

// acNum and acDen expose AC = sumKeys/usedLinks as an exact fraction.
func (cs *congState) ac() (num, den int64) {
	if cs.usedLinks == 0 {
		return 0, 1
	}
	return cs.sumKeys, int64(cs.usedLinks)
}

// forEachSwapEdge enumerates every directed edge incident to the
// swap pair (a, b), deduplicated through the caller's generation
// marks, handing each to visit with its old and new endpoint
// placements under the hypothetical a↔b exchange. It is THE single
// copy of the swap-edge traversal: the scorers' delta collection and
// the commit's edge-set moves both route through it, so a score can
// never drift from what its commit does. It reads only shared
// immutable state plus st.nodeOf; edgeSeen is the caller's scratch,
// which is what keeps concurrent scorers race-free.
func (cs *congState) forEachSwapEdge(a, b int32, edgeSeen []int32, edgeGen int32, visit func(i int32, oldA, oldB, newA, newB int32)) {
	ma, mb := cs.st.nodeOf[a], cs.st.nodeOf[b]
	newNode := func(t int32) int32 {
		switch t {
		case a:
			return mb
		case b:
			return ma
		default:
			return cs.st.nodeOf[t]
		}
	}
	handleEdge := func(i int32, src, dst int32) {
		if edgeSeen[i] == edgeGen {
			return
		}
		edgeSeen[i] = edgeGen
		visit(i, cs.st.nodeOf[src], cs.st.nodeOf[dst], newNode(src), newNode(dst))
	}
	for _, t := range [2]int32{a, b} {
		for i := cs.g.Xadj[t]; i < cs.g.Xadj[t+1]; i++ {
			u := cs.g.Adj[i]
			handleEdge(int32(i), t, u)
			if j := cs.revEdge[i]; j >= 0 {
				handleEdge(j, u, t)
			}
		}
	}
}

// commit applies the swap a↔b whose deltas sc collected last: the
// loads, heap keys and AC aggregates take the deltas, every swap edge
// moves from its old route's link sets to its new route's, and the
// two tasks trade nodes.
func (cs *congState) commit(sc *congScorer, a, b int32) {
	for _, l := range sc.touched {
		dl := sc.deltaL[l]
		if dl == 0 {
			continue
		}
		oldLoad := cs.load[l]
		cs.load[l] = oldLoad + dl
		cs.congHeap.Update(int(l), cs.load[l]*cs.scale[l])
		cs.sumKeys += dl * cs.scale[l]
		cs.usedLinks += usedShift(oldLoad, cs.load[l])
	}
	// The edge sets move before place() flips the nodeOf the traversal
	// reads.
	sc.edgeGen++
	cs.forEachSwapEdge(a, b, sc.edgeSeen, sc.edgeGen, func(i, oldA, oldB, newA, newB int32) {
		cs.curEdge = int(i)
		if oldA != oldB {
			cs.forEachRouteLink(oldA, oldB, cs.delFn)
		}
		if newA != newB {
			cs.forEachRouteLink(newA, newB, cs.addFn)
		}
	})
	ma, mb := cs.st.nodeOf[a], cs.st.nodeOf[b]
	cs.st.place(a, mb)
	cs.st.place(b, ma)
}

// congScore is the outcome a hypothetical swap would commit to: the
// new maximum congestion key and the new AC value as an exact
// fraction. Scores are what the deterministic commit rule compares.
type congScore struct {
	max   int64
	acNum int64
	acDen int64
}

// better reports whether the score improves on the current state —
// strictly lower maximum congestion, or equal maximum with strictly
// lower average congestion: the acceptance rule of Algorithm 3.
func (s congScore) better(curMax, curACnum, curACden int64) bool {
	return s.max < curMax || (s.max == curMax && s.acNum*curACden < curACnum*s.acDen)
}

// beats orders two candidate scores for the commit rule: lower
// maximum first, then lower AC. A tie keeps the earlier candidate, so
// selection is deterministic by candidate index.
func (s congScore) beats(o congScore) bool {
	return s.max < o.max || (s.max == o.max && s.acNum*o.acDen < o.acNum*s.acDen)
}

// congScorer evaluates one hypothetical swap read-only: it collects
// the per-link load deltas into its own scratch and derives the
// post-swap (max congestion, AC) from the shared congState without
// touching the state's loads, heap or link-membership sets. Between
// two commits the shared state is frozen, so one scorer per candidate
// slot lets candidate evaluation fan out over the solve's worker pool
// race-free; the chosen swap's deltas are then collected again on one
// scorer and committed serially from it, so a score and its commit
// read the same deltas and the mapping is byte-identical at every
// worker count.
type congScorer struct {
	cs       *congState
	deltaL   []int64 // scratch: per-link load delta
	touched  []int32 // links touched by the current evaluation
	linkSeen []int32 // per-link generation stamp (dedupes touched)
	linkGen  int32
	edgeSeen []int32 // per-edge generation stamp
	edgeGen  int32

	// Pre-bound visitor and skip predicate: built once per scorer so
	// the per-edge inner loops and the heap query allocate nothing.
	curW    int64
	deltaFn func(l int32, mult int64)
	skipFn  func(item int) bool
}

func newCongScorer(cs *congState) *congScorer {
	ar := cs.st.ex.arenaOf()
	sc := &congScorer{
		cs:       cs,
		deltaL:   ar.Int64s(cs.tab.Links()),
		linkSeen: ar.Int32s(cs.tab.Links()),
		edgeSeen: ar.Int32s(cs.g.M()),
	}
	sc.deltaFn = func(l int32, mult int64) { sc.addDelta(l, sc.curW*mult) }
	sc.skipFn = func(item int) bool { return sc.linkSeen[item] == sc.linkGen }
	return sc
}

// release returns the scorer's arena-backed buffers.
func (sc *congScorer) release() {
	ar := sc.cs.st.ex.arenaOf()
	ar.PutInt64s(sc.deltaL)
	ar.PutInt32s(sc.linkSeen)
	ar.PutInt32s(sc.edgeSeen)
	sc.deltaL, sc.linkSeen, sc.edgeSeen = nil, nil, nil
}

func (sc *congScorer) addDelta(l int32, d int64) {
	if sc.linkSeen[l] != sc.linkGen {
		sc.linkSeen[l] = sc.linkGen
		sc.touched = append(sc.touched, l)
	}
	sc.deltaL[l] += d
}

// collect gathers the per-link load deltas of swapping tasks a and b
// into the scorer's scratch, reading the shared state only.
func (sc *congScorer) collect(a, b int32) {
	cs := sc.cs
	for _, l := range sc.touched {
		sc.deltaL[l] = 0
	}
	sc.touched = sc.touched[:0]
	sc.linkGen++
	sc.edgeGen++
	// The traversal is the shared forEachSwapEdge — identical to what
	// a commit of this swap walks — with the scorer's own edgeSeen
	// marks, so concurrent scorers only read the shared state.
	cs.forEachSwapEdge(a, b, sc.edgeSeen, sc.edgeGen, func(i, oldA, oldB, newA, newB int32) {
		w := cs.edgeLoad(int(i))
		if oldA != oldB {
			sc.curW = -w
			cs.forEachRouteLink(oldA, oldB, sc.deltaFn)
		}
		if newA != newB {
			sc.curW = w
			cs.forEachRouteLink(newA, newB, sc.deltaFn)
		}
	})
}

// score evaluates swapping tasks a and b: the (max congestion, AC) a
// commit of the swap would leave, computed on the scorer's own
// scratch while shared state (placements, loads, heap keys, AC sums)
// is only read.
func (sc *congScorer) score(a, b int32) congScore {
	cs := sc.cs
	sc.collect(a, b)
	// Post-swap aggregates: untouched links keep their heap keys —
	// MaxKeyExcept reads them without mutating the shared heap — and
	// touched links re-key as (load+delta)*scale with commit's
	// used-link accounting.
	newMax := cs.congHeap.MaxKeyExcept(sc.skipFn)
	sum := cs.sumKeys
	used := cs.usedLinks
	for _, l := range sc.touched {
		dl := sc.deltaL[l]
		oldLoad := cs.load[l]
		newLoad := oldLoad + dl
		key := newLoad * cs.scale[l]
		if key > newMax {
			newMax = key
		}
		sum += dl * cs.scale[l]
		used += usedShift(oldLoad, newLoad)
	}
	if newMax < 0 {
		newMax = 0 // empty heap corner: nothing routed anywhere
	}
	if used == 0 {
		return congScore{max: newMax, acNum: 0, acDen: 1}
	}
	return congScore{max: newMax, acNum: sum, acDen: int64(used)}
}

// congScoreParMinWork gates the scoring fan-out, in edge-link
// traversals per candidate evaluation: below it, handing a candidate
// to the pool costs more than scoring it inline, so small instances
// keep the serial fast path. The gate depends only on the instance —
// never on the worker count — and the commit rule is identical on
// both paths, so it affects wall-clock only, never bytes.
const congScoreParMinWork = 256

// congScoreWork estimates the edge-link traversals of one candidate
// evaluation: the two swapped tasks re-route every incident directed
// edge twice (old and new placement) over routes bounded by half the
// topology diameter — 2 × average degree × diameter.
func congScoreWork(g *graph.Graph, tab *routecache.Table) int {
	if g.N() == 0 {
		return 0
	}
	return 2 * (g.M() / g.N()) * tab.Diameter()
}

// RefineCongestion runs Algorithm 3 on a complete mapping, mutating
// nodeOf in place. It repeatedly examines the most congested link and
// swaps tasks to lower MC (lexicographically: lower MC, or equal MC
// with lower AC); per task it scores up to Delta BFS-ordered swap
// candidates — fanned out over opt.Exec's worker pool on instances
// past the work gate — and commits the best-scoring improving one,
// ties broken by candidate index. It stops when the most congested
// link cannot be improved. The mapping is byte-identical at every
// worker count. nodeOf maps every task to an allocated node of tab.
// Returns the number of swaps applied.
func RefineCongestion(g *graph.Graph, tab *routecache.Table, nodeOf []int32, kind CongestionKind, opt RefineOptions) int {
	return refineCongestion(g, tab, nil, nodeOf, kind, opt)
}

// RefineCongestionAdaptive runs the §III-C dynamic-routing adaptation
// of Algorithm 3: per-link loads are expectations over every minimal
// dimension-ordered route of each message (the Blue Gene style
// approximate refinement the paper sketches for networks without
// static routing). The acceptance rule and search structure are those
// of Algorithm 3, applied to the expected congestion. tab's topology
// must enumerate minimal routes (torus.As[torus.MultipathTopology]).
// Returns the number of swaps applied.
func RefineCongestionAdaptive(g *graph.Graph, tab *routecache.Table, nodeOf []int32, kind CongestionKind, opt RefineOptions) int {
	mp, ok := torus.As[torus.MultipathTopology](tab)
	if !ok {
		panic("core: adaptive congestion refinement needs minimal-route enumeration")
	}
	return refineCongestion(g, tab, mp, nodeOf, kind, opt)
}

func refineCongestion(g *graph.Graph, tab *routecache.Table, multipath torus.MultipathTopology, nodeOf []int32, kind CongestionKind, opt RefineOptions) int {
	opt = opt.withDefaults()
	ex := opt.Exec
	st := newMapState(g, tab, ex)
	defer st.release()
	st.placeNodes(nodeOf)
	defer st.nodesInto(nodeOf)
	cs := newCongState(g, tab, st, kind, multipath)
	defer cs.release()

	// Candidate scoring is read-only between commits, so it fans out
	// over the request's worker pool: slot i scores candidate i on
	// scorer i, and the commit rule — best score, ties broken by
	// candidate index — is applied to the same candidate prefix the
	// serial chain would have examined, so the mapping is
	// byte-identical at every worker count. The serial path (gated-off
	// fan-out, or one free worker) holds one scorer, scores the same
	// batch inline and commits by the same rule.
	scorers := make([]*congScorer, 1)
	if ex.par().NumWorkers() > 1 && congScoreWork(g, tab) >= congScoreParMinWork {
		scorers = make([]*congScorer, opt.Delta)
	}
	for i := range scorers {
		scorers[i] = newCongScorer(cs)
	}
	defer func() {
		for _, sc := range scorers {
			sc.release()
		}
	}()
	cands := make([]int32, 0, opt.Delta)
	scores := make([]congScore, opt.Delta)

	swaps := 0
	rounds, scored := int64(0), int64(0)
	maxIters := 4 * tab.Links()
	var tasksBuf []int32
	for iter := 0; iter < maxIters; iter++ {
		if ex.cancelled() {
			break // polled between commit rounds
		}
		emc, curMax := cs.congHeap.Peek()
		if curMax == 0 {
			break // nothing routed at all
		}
		rounds++
		curACnum, curACden := cs.ac()
		improvedLink := false
		// Distinct tasks whose messages cross emc.
		tasksBuf = tasksBuf[:0]
		for _, ei := range cs.linkEdges[emc].Items() {
			src := cs.edgeOwner[ei]
			dst := cs.g.Adj[ei]
			tasksBuf = appendUnique(tasksBuf, src)
			tasksBuf = appendUnique(tasksBuf, dst)
		}
	taskLoop:
		for _, tmc := range tasksBuf {
			// Up to Delta swap partners in BFS order — the exact
			// prefix the serial chain of Algorithm 3 examines.
			cands = st.swapPartners(tmc, opt.Delta, cands)
			if len(cands) == 0 {
				continue
			}
			scored += int64(len(cands))
			if len(scorers) > 1 && len(cands) > 1 {
				ex.par().ForEachIdx(len(cands), func(i int) {
					scores[i] = scorers[i].score(tmc, cands[i])
				})
			} else {
				for i, t := range cands {
					scores[i] = scorers[0].score(tmc, t)
				}
			}
			chosen := -1
			for i := range cands {
				if !scores[i].better(curMax, curACnum, curACden) {
					continue
				}
				if chosen < 0 || scores[i].beats(scores[chosen]) {
					chosen = i
				}
			}
			if chosen < 0 {
				continue
			}
			// Commit serially on the shared state from the winner's
			// deltas, collected again on the first scorer.
			t := cands[chosen]
			scorers[0].collect(tmc, t)
			cs.commit(scorers[0], tmc, t)
			swaps++
			improvedLink = true
			break taskLoop
		}
		if !improvedLink {
			break // the most congested link cannot be improved
		}
	}
	ex.Count("cong_rounds", rounds)
	ex.Count("cong_candidates_scored", scored)
	ex.Count("cong_swaps", int64(swaps))
	return swaps
}

func appendUnique(s []int32, v int32) []int32 {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}
