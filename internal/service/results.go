package service

import (
	"container/list"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	topomap "repro"
	"repro/internal/wirebin"
)

// resultEntry is one finished solve the service keeps around for
// incremental remapping: the engine that produced it (route state
// intact), the task graph it placed with its digest (see
// taskGraphDigest), and the result itself. The fingerprint is the
// wire handle POST /v1/remap presents instead of re-sending any of
// them.
type resultEntry struct {
	fp     string
	eng    *topomap.Engine
	tasks  *topomap.TaskGraph
	digest uint64
	res    *topomap.MapResult
}

// resultNode wraps an entry with its retention accounting: when it
// entered the cache and how many remaps have resolved it since. The
// remap count is the "heat" eviction weighs — an allocation that is
// being remapped over and over is exactly the one whose route state
// must not be churned out by a burst of one-shot solves.
type resultNode struct {
	entry   resultEntry
	created time.Time
	remaps  int64
	// reqKeys are the solve-memo indexes of the requests that produced
	// this entry (none for entries fed by remap deltas): a repeat of
	// any of them — solves are deterministic — is answered from here
	// without touching a worker slot. Distinct requests can produce
	// one placement (a seed-independent mapper at a new seed), so an
	// entry collects their keys, at most maxReqKeys of them.
	reqKeys []string
}

// resultEvictionWindow bounds the eviction scan: past capacity, the
// cache examines this many entries from the cold (LRU) end and evicts
// the one with the fewest remap resolutions, ties going to the
// colder entry. Plain LRU is the window=1 special case; a small
// window keeps eviction O(1)-ish while letting remap-hot entries
// survive recency churn.
const resultEvictionWindow = 8

// maxReqKeys bounds the request keys one entry carries: past it the
// oldest key drops out of the memo, so a client sweeping the seeds of
// a seed-independent mapper cannot grow the memo index without bound.
const maxReqKeys = 8

// Age buckets of the result-cache hit/eviction counters on /statusz:
// an upper bound per bucket, the last unbounded. Evictions landing in
// the young buckets mean the cache is thrashing below the remap
// interval; hits landing in the old buckets mean long-lived
// allocations are being remapped, the workload retention is for.
const resultAgeBuckets = 5

var (
	resultAgeBounds = [resultAgeBuckets - 1]time.Duration{time.Second, 10 * time.Second, time.Minute, 10 * time.Minute}
	resultAgeLabels = [resultAgeBuckets]string{"lt_1s", "lt_10s", "lt_1m", "lt_10m", "ge_10m"}
)

func resultAgeBucket(age time.Duration) int {
	for i, b := range resultAgeBounds {
		if age < b {
			return i
		}
	}
	return len(resultAgeBounds)
}

// resultCache is the bounded cache of recent results the map and
// remap handlers feed (deltas chain) and the remap handler resolves
// fingerprints against. Retention is recency-ordered but
// remap-frequency-weighted: see resultEvictionWindow.
type resultCache struct {
	mu  sync.Mutex
	max int
	ll  *list.List // front = most recent; values are *resultNode
	idx map[string]*list.Element
	// byReq is the solve-memo index: request key → the entry that
	// request produced. Entries enter it via putReq (the map
	// handler); remap-fed entries are not memoized — their result
	// depends on the chain of deltas, not on one request.
	byReq map[string]*list.Element

	// Lookup and eviction accounting, surfaced on /statusz and
	// /metrics: a miss is a remap the client must recover from with a
	// full re-solve, so the hit rate is the signal operators size the
	// cache by. The by-age breakdowns index resultAgeLabels.
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	// Solve-memo counters: a memo hit is an identical repeat request
	// served without a solve — the steady-state the binary protocol's
	// interned refs are built for.
	memoHits   atomic.Int64
	memoMisses atomic.Int64

	hitsByAge      [resultAgeBuckets]atomic.Int64
	evictionsByAge [resultAgeBuckets]atomic.Int64
}

func newResultCache(max int) *resultCache {
	return &resultCache{max: max, ll: list.New(), idx: make(map[string]*list.Element), byReq: make(map[string]*list.Element)}
}

// put inserts (or refreshes) an entry; past capacity it evicts the
// least-remapped entry among the resultEvictionWindow coldest.
func (c *resultCache) put(e resultEntry) { c.putReq("", e) }

// evictOne removes the coldest low-heat entry: scan up to
// resultEvictionWindow entries from the back, victim = fewest remap
// resolutions, ties to the colder one. The front (most recent) entry
// is never a victim — it is the result the handler is about to hand
// out a fingerprint for, and evicting it would turn every immediate
// remap into a miss. Called with c.mu held.
func (c *resultCache) evictOne() {
	victim := c.ll.Back()
	if victim == nil || victim == c.ll.Front() {
		return
	}
	best := victim.Value.(*resultNode).remaps
	el := victim
	for i := 1; i < resultEvictionWindow && best > 0; i++ {
		el = el.Prev()
		if el == nil || el == c.ll.Front() {
			break
		}
		if n := el.Value.(*resultNode); n.remaps < best {
			victim, best = el, n.remaps
		}
	}
	n := victim.Value.(*resultNode)
	delete(c.idx, n.entry.fp)
	for _, k := range n.reqKeys {
		delete(c.byReq, k)
	}
	c.ll.Remove(victim)
	c.evictions.Add(1)
	c.evictionsByAge[resultAgeBucket(time.Since(n.created))].Add(1)
}

// putReq is put plus solve-memo indexing: the entry is additionally
// reachable by the request key that produced it (none when reqKey is
// empty), so an identical repeat request skips the solve entirely.
func (c *resultCache) putReq(reqKey string, e resultEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[e.fp]
	if ok {
		// Same fingerprint means the same placement re-derived; the
		// entry keeps its age and heat, only the payload refreshes.
		c.ll.MoveToFront(el)
		el.Value.(*resultNode).entry = e
	} else {
		el = c.ll.PushFront(&resultNode{entry: e, created: time.Now()})
		c.idx[e.fp] = el
	}
	if old, indexed := c.byReq[reqKey]; reqKey != "" && old != el {
		if indexed {
			// A new fingerprint under an old request key can only mean the
			// solve stopped being deterministic — don't leave the stale
			// index dangling, but keep the old entry remap-resolvable.
			o := old.Value.(*resultNode)
			o.reqKeys = slices.DeleteFunc(o.reqKeys, func(k string) bool { return k == reqKey })
		}
		n := el.Value.(*resultNode)
		if len(n.reqKeys) == maxReqKeys {
			delete(c.byReq, n.reqKeys[0])
			n.reqKeys = append(n.reqKeys[:0], n.reqKeys[1:]...)
		}
		n.reqKeys = append(n.reqKeys, reqKey)
		c.byReq[reqKey] = el
	}
	for c.ll.Len() > c.max {
		c.evictOne()
	}
}

// getReq resolves a request key — a solve-memo lookup. A hit refreshes
// recency but is deliberately not remap heat: repeat solves and remap
// chains are different retention signals.
func (c *resultCache) getReq(reqKey string) (resultEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byReq[reqKey]
	if !ok {
		c.memoMisses.Add(1)
		return resultEntry{}, false
	}
	c.memoHits.Add(1)
	c.ll.MoveToFront(el)
	return el.Value.(*resultNode).entry, true
}

// get resolves a fingerprint, marking the entry most recently used
// and counting the resolution as remap heat.
func (c *resultCache) get(fp string) (resultEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[fp]
	if !ok {
		c.misses.Add(1)
		return resultEntry{}, false
	}
	c.hits.Add(1)
	n := el.Value.(*resultNode)
	n.remaps++
	c.hitsByAge[resultAgeBucket(time.Since(n.created))].Add(1)
	c.ll.MoveToFront(el)
	return n.entry, true
}

// stats snapshots the lookup and eviction counters.
func (c *resultCache) stats() (hits, misses, evictions int64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}

// memoStats snapshots the solve-memo counters.
func (c *resultCache) memoStats() (hits, misses int64) {
	return c.memoHits.Load(), c.memoMisses.Load()
}

// byAge snapshots the per-entry-age hit and eviction counters, keyed
// by resultAgeLabels.
func (c *resultCache) byAge() (hits, evictions map[string]int64) {
	hits = make(map[string]int64, len(resultAgeLabels))
	evictions = make(map[string]int64, len(resultAgeLabels))
	for i, l := range resultAgeLabels {
		hits[l] = c.hitsByAge[i].Load()
		evictions[l] = c.evictionsByAge[i].Load()
	}
	return hits, evictions
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// resultFingerprint derives the content handle of a finished solve:
// a Hash64 over the engine's canonical (topology, allocation)
// fingerprint, the task graph's digest, and the placement itself. The
// digest stands for the graph, so a launch solve and every remap of
// its chain fold one word, not the graph. Identical solves produce
// identical fingerprints across requests and restarts, so clients may
// cache them; distinct placements collide only with hash probability.
func resultFingerprint(eng *topomap.Engine, digest uint64, res *topomap.MapResult) string {
	h := wirebin.Hash64Init
	h = h.Str(topomap.EngineFingerprint(eng.Topology(), eng.Allocation()))
	h = h.U64(digest)
	h = h.Str(string(res.Mapper))
	h = h.U64(uint64(len(res.GroupOf)))
	for _, g := range res.GroupOf {
		h = h.U64(uint64(uint32(g)))
	}
	for _, m := range res.NodeOf {
		h = h.U64(uint64(uint32(m)))
	}
	return "map:" + strconv.FormatUint(uint64(h), 16)
}

// taskGraphDigest folds the task graph's structure — coarsening
// factor, adjacency, edge volumes, (when heterogeneous) per-task loads
// and (when geometric) per-task coordinates — into one word,
// alloc-free. It is computed once per graph, where a graph enters the
// service for a memoizable solve: when a /v2 tasks section is interned
// and when a /v1 map request's graph is built. The solve memo key and
// the result fingerprint fold the digest, so a warm request never
// walks the graph. Unit loads are canonically nil (TaskGraphSpec and
// the binary decoder both canonicalize) and absent coordinates are
// nil, so both protocols digest one graph alike.
func taskGraphDigest(tg *topomap.TaskGraph) uint64 {
	h := wirebin.Hash64Init
	h = h.U64(uint64(tg.K))
	h = h.U64(uint64(tg.G.N()))
	for v := 0; v < tg.G.N(); v++ {
		adj, w := tg.G.Neighbors(v), tg.G.Weights(v)
		h = h.U64(uint64(len(adj)))
		for i, u := range adj {
			h = h.U64(uint64(uint32(u)))
			h = h.U64(uint64(w[i]))
		}
	}
	if tg.G.VW != nil {
		h = h.U64(^uint64(0)) // domain separator: loads follow
		for _, l := range tg.G.VW {
			h = h.U64(uint64(l))
		}
	}
	if tg.HasCoords() {
		h = h.U64(^uint64(1)) // domain separator: coordinates follow
		h = h.U64(uint64(tg.Dim))
		for _, c := range tg.Coords {
			h = h.U64(math.Float64bits(c))
		}
	}
	return uint64(h)
}

// solveMemoKey identifies a map job up to response framing: the
// engine cache key (canonical topology + allocation), every knob of
// the lowered solve that can change the placement — the mapper as
// lowered, so spellings that run the same mapper share a key — and
// the task graph's digest (see taskGraphDigest), one word in place of
// the graph. Both protocols derive it from the same job and digest
// equal graphs alike, so a JSON solve warms the memo for binary
// repeats and vice versa. Response-only options (rankfile, trace
// echo) stay out — they re-render per response.
func solveMemoKey(engineKey string, sol topomap.Solve, digest uint64) string {
	h := wirebin.Hash64Init
	h = h.Str(engineKey)
	h = h.U64(0) // domain separator between the key and the knobs
	h = h.Str(string(sol.Mapper))
	h = h.U64(uint64(sol.Seed))
	var flags uint64
	if sol.Refine {
		flags |= 1
	}
	if sol.FineRefine {
		flags |= 2
	}
	if sol.Balance {
		flags |= 4
	}
	h = h.U64(flags)
	h = h.U64(digest)
	return "req:" + strconv.FormatUint(uint64(h), 16)
}
