package topomap

import (
	"container/list"
	"sync"
)

// EngineCache is an LRU cache of Engines keyed by the canonical
// fingerprint of their (topology, allocation) pair. Building an
// Engine tabulates the pairwise routing state of the allocation —
// the expensive part of serving a mapping request cold — so a
// resident service keeps one cache and lets repeated jobs on the same
// partition skip the rebuild. The cache is safe for concurrent use;
// concurrent misses on the same key build the engine once and share
// it (the losers block on the winner's build instead of duplicating
// it).
//
// Internally the cache is sharded by a hash of the fingerprint key:
// each shard owns its own mutex, LRU list and share of the capacity,
// so concurrent lookups of different allocations — the portfolio
// daemon's steady state — no longer serialize behind one lock.
// Counters are kept per shard and summed on read, so Stats stays
// exact. A shard holds at least engineCacheMinPerShard (16) entries,
// so every cache under 32 entries keeps a single shard, preserving
// exact global LRU order.
type EngineCache struct {
	max    int
	shards []engineCacheShard
}

// engineCacheShard is one independently locked slice of the cache.
type engineCacheShard struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used
	entries map[string]*list.Element

	hits, misses, evictions int64
}

// cacheEntry is one keyed engine; once gates the single build shared
// by concurrent misses.
type cacheEntry struct {
	key  string
	once sync.Once
	eng  *Engine
	err  error
}

// DefaultEngineCacheSize bounds the process-wide cache behind
// NewCachedEngine.
const DefaultEngineCacheSize = 64

// engineCacheMaxShards bounds the shard fan-out; engineCacheMinPerShard
// is the smallest per-shard capacity worth splitting for. Eviction is
// per shard, so a hot working set that hash-skews into one shard is
// capped at that shard's quota — a generous 16-entry floor keeps the
// thrash probability negligible while still splitting the default
// 64-engine cache four ways. Caches under two shards' worth stay
// single-sharded, which also keeps eviction order exactly LRU for
// small caches.
const (
	engineCacheMaxShards   = 8
	engineCacheMinPerShard = 16
)

// NewEngineCache returns an empty cache holding at most max engines
// (max <= 0 means DefaultEngineCacheSize).
func NewEngineCache(max int) *EngineCache {
	if max <= 0 {
		max = DefaultEngineCacheSize
	}
	n := max / engineCacheMinPerShard
	if n > engineCacheMaxShards {
		n = engineCacheMaxShards
	}
	if n < 1 {
		n = 1
	}
	c := &EngineCache{max: max, shards: make([]engineCacheShard, n)}
	base, rem := max/n, max%n
	for i := range c.shards {
		s := &c.shards[i]
		s.max = base
		if i < rem {
			s.max++
		}
		s.ll = list.New()
		s.entries = make(map[string]*list.Element)
	}
	return c
}

// shardFor hashes the fingerprint key onto a shard: inline FNV-1a so
// the daemon's hottest path pays no allocation before the shard lock.
func (c *EngineCache) shardFor(key string) *engineCacheShard {
	if len(c.shards) == 1 {
		return &c.shards[0]
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return &c.shards[h%uint32(len(c.shards))]
}

// Get returns the cached engine for the (topology, allocation)
// fingerprint, building and inserting it on a miss. hit reports
// whether the routing state was reused.
func (c *EngineCache) Get(topo Topology, a *Allocation) (eng *Engine, hit bool, err error) {
	return c.GetKeyed(EngineFingerprint(topo, a), func() (*Engine, error) {
		return NewEngine(topo, a)
	})
}

// GetKeyed is Get with a caller-supplied canonical key and engine
// constructor — for callers (the mapd service) that derive the key
// from a wire-level topology spec without building the topology
// first. The key must uniquely determine the engine build.
func (c *EngineCache) GetKeyed(key string, build func() (*Engine, error)) (eng *Engine, hit bool, err error) {
	s := c.shardFor(key)
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		s.hits++
		s.mu.Unlock()
		e.once.Do(func() {}) // wait for an in-flight build
		if e.err != nil {
			return nil, false, e.err
		}
		return e.eng, true, nil
	}
	e := &cacheEntry{key: key}
	s.entries[key] = s.ll.PushFront(e)
	s.misses++
	for s.ll.Len() > s.max {
		lru := s.ll.Back()
		s.ll.Remove(lru)
		delete(s.entries, lru.Value.(*cacheEntry).key)
		s.evictions++
	}
	s.mu.Unlock()

	e.once.Do(func() { e.eng, e.err = build() })
	if e.err != nil {
		// Never serve a failed build from the cache.
		s.mu.Lock()
		if el, ok := s.entries[key]; ok && el.Value == e {
			s.ll.Remove(el)
			delete(s.entries, key)
		}
		s.mu.Unlock()
		return nil, false, e.err
	}
	return e.eng, false, nil
}

// Len returns the number of cached engines (including in-flight
// builds).
func (c *EngineCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Cap returns the maximum number of cached engines (the per-shard
// capacities sum to it exactly).
func (c *EngineCache) Cap() int { return c.max }

// Shards returns the number of independently locked shards.
func (c *EngineCache) Shards() int { return len(c.shards) }

// Stats returns the cumulative hit, miss and eviction counts, summed
// exactly over the per-shard counters. An eviction rate rivaling the
// miss rate tells an operator the cache is sized below the live
// (topology, allocation) working set, i.e. the cached-path win is
// not being realized.
func (c *EngineCache) Stats() (hits, misses, evictions int64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		evictions += s.evictions
		s.mu.Unlock()
	}
	return hits, misses, evictions
}

// processEngines backs NewCachedEngine: one cache per process, the
// way a resident scheduler component holds it.
var processEngines = NewEngineCache(DefaultEngineCacheSize)

// NewCachedEngine is NewEngine through a process-wide LRU cache: a
// repeated (topology, allocation) fingerprint returns the already
// built engine, skipping the route-state rebuild. The returned engine
// is shared and immutable — exactly as safe as any Engine — and must
// not be assumed private to the caller.
func NewCachedEngine(topo Topology, a *Allocation) (*Engine, error) {
	eng, _, err := processEngines.Get(topo, a)
	return eng, err
}
