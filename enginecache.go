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
// it). One mutex guards the LRU list and the counters; the build runs
// outside it.
type EngineCache struct {
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

// NewEngineCache returns an empty cache holding at most max engines
// (max <= 0 means DefaultEngineCacheSize).
func NewEngineCache(max int) *EngineCache {
	if max <= 0 {
		max = DefaultEngineCacheSize
	}
	return &EngineCache{max: max, ll: list.New(), entries: make(map[string]*list.Element)}
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
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.hits++
		c.mu.Unlock()
		e.once.Do(func() {}) // wait for an in-flight build
		if e.err != nil {
			return nil, false, e.err
		}
		return e.eng, true, nil
	}
	e := &cacheEntry{key: key}
	c.entries[key] = c.ll.PushFront(e)
	c.misses++
	for c.ll.Len() > c.max {
		lru := c.ll.Back()
		c.ll.Remove(lru)
		delete(c.entries, lru.Value.(*cacheEntry).key)
		c.evictions++
	}
	c.mu.Unlock()

	e.once.Do(func() { e.eng, e.err = build() })
	if e.err != nil {
		// Never serve a failed build from the cache.
		c.mu.Lock()
		if el, ok := c.entries[key]; ok && el.Value == e {
			c.ll.Remove(el)
			delete(c.entries, key)
		}
		c.mu.Unlock()
		return nil, false, e.err
	}
	return e.eng, false, nil
}

// Len returns the number of cached engines (including in-flight
// builds).
func (c *EngineCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Cap returns the maximum number of cached engines.
func (c *EngineCache) Cap() int { return c.max }

// Stats returns the cumulative hit, miss and eviction counts. An
// eviction rate rivaling the miss rate tells an operator the cache is
// sized below the live (topology, allocation) working set, i.e. the
// cached-path win is not being realized.
func (c *EngineCache) Stats() (hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
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
