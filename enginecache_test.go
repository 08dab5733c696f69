package topomap

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// Fingerprint and engine-cache tests: canonical keys must separate
// what differs and unify what doesn't, and the LRU must evict, share
// in-flight builds, and never cache failures.

func TestTopologyFingerprintFamilies(t *testing.T) {
	ft, err := NewFatTree(8, 10e9, 2)
	if err != nil {
		t.Fatal(err)
	}
	df, err := NewDragonfly(3, 10e9, 5e9, 4e9)
	if err != nil {
		t.Fatal(err)
	}
	fps := map[string]string{
		"torus":   TopologyFingerprint(NewHopperTorus(8, 8, 8)),
		"mesh":    TopologyFingerprint(NewTorusMesh([]int{8, 8, 8}, []float64{9.38e9, 4.68e9, 9.38e9})),
		"torus2":  TopologyFingerprint(NewHopperTorus(8, 8, 4)),
		"fattree": TopologyFingerprint(ft),
		"dfly":    TopologyFingerprint(df),
	}
	seen := map[string]string{}
	for name, fp := range fps {
		if prev, dup := seen[fp]; dup {
			t.Fatalf("%s and %s share fingerprint %q", name, prev, fp)
		}
		seen[fp] = name
	}
	// Same construction parameters, same fingerprint.
	if fps["torus"] != TopologyFingerprint(NewHopperTorus(8, 8, 8)) {
		t.Fatal("identical tori fingerprint differently")
	}
	// A mesh is not a torus of the same dims.
	if !strings.HasPrefix(fps["mesh"], "mesh:") || !strings.HasPrefix(fps["torus"], "torus:") {
		t.Fatalf("family prefixes missing: %q / %q", fps["mesh"], fps["torus"])
	}
	// The engine's cached view fingerprints as its base topology.
	topo := NewHopperTorus(6, 6, 6)
	a, err := SparseAllocation(topo, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	if TopologyFingerprint(eng.view) != TopologyFingerprint(topo) {
		t.Fatal("route-cached view fingerprints differently from its base")
	}
}

func TestTopologyFingerprintCustomFallback(t *testing.T) {
	topo := NewHopperTorus(4, 4, 4)
	flat := flatTopo{topo} // hides Fingerprinter: structural hash path
	fp := TopologyFingerprint(flat)
	if !strings.HasPrefix(fp, "custom:") {
		t.Fatalf("custom topology fingerprint %q lacks structural prefix", fp)
	}
	if fp != TopologyFingerprint(flatTopo{NewHopperTorus(4, 4, 4)}) {
		t.Fatal("identical custom topologies hash differently")
	}
	if fp == TopologyFingerprint(flatTopo{NewHopperTorus(4, 4, 8)}) {
		t.Fatal("different custom topologies collide")
	}
}

func TestAllocationFingerprint(t *testing.T) {
	a := &Allocation{Nodes: []int32{1, 2, 3}, ProcsPerNode: []int{16, 16, 16}}
	b := &Allocation{Nodes: []int32{1, 2, 3}, ProcsPerNode: []int{16, 16, 16}}
	if AllocationFingerprint(a) != AllocationFingerprint(b) {
		t.Fatal("identical allocations fingerprint differently")
	}
	for _, diff := range []*Allocation{
		{Nodes: []int32{1, 3, 2}, ProcsPerNode: []int{16, 16, 16}}, // order matters (DEF follows it)
		{Nodes: []int32{1, 2, 4}, ProcsPerNode: []int{16, 16, 16}},
		{Nodes: []int32{1, 2, 3}, ProcsPerNode: []int{16, 8, 16}},
	} {
		if AllocationFingerprint(a) == AllocationFingerprint(diff) {
			t.Fatalf("allocation %+v collides with %+v", diff, a)
		}
	}
}

func TestEngineCacheLRU(t *testing.T) {
	topo := NewHopperTorus(6, 6, 6)
	allocs := make([]*Allocation, 3)
	for i := range allocs {
		a, err := SparseAllocation(topo, 4, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		allocs[i] = a
	}
	c := NewEngineCache(2)
	e0, hit, err := c.Get(topo, allocs[0])
	if err != nil || hit {
		t.Fatalf("first get: hit=%v err=%v", hit, err)
	}
	if _, hit, _ := c.Get(topo, allocs[0]); !hit {
		t.Fatal("repeat get missed")
	}
	c.Get(topo, allocs[1])
	c.Get(topo, allocs[2]) // evicts allocs[0] (LRU)
	if c.Len() != 2 {
		t.Fatalf("cache holds %d engines, cap 2", c.Len())
	}
	e0b, hit, err := c.Get(topo, allocs[0])
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("evicted entry reported a hit")
	}
	if e0b == e0 {
		t.Fatal("evicted engine pointer resurfaced without a rebuild")
	}
	hits, misses, evictions := c.Stats()
	if hits != 1 || misses != 4 {
		t.Fatalf("stats = %d hits / %d misses, want 1/4", hits, misses)
	}
	if evictions != 2 {
		t.Fatalf("stats = %d evictions, want 2", evictions)
	}
}

func TestEngineCacheSharesInFlightBuild(t *testing.T) {
	topo := NewHopperTorus(6, 6, 6)
	a, err := SparseAllocation(topo, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewEngineCache(4)
	const goroutines = 16
	engines := make([]*Engine, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			eng, _, err := c.Get(topo, a)
			if err != nil {
				t.Error(err)
				return
			}
			engines[g] = eng
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if engines[g] != engines[0] {
			t.Fatal("concurrent misses built distinct engines for one key")
		}
	}
	if _, misses, _ := c.Stats(); misses != 1 {
		t.Fatalf("%d misses for one key under concurrency, want 1 shared build", misses)
	}
}

func TestEngineCacheDoesNotCacheFailures(t *testing.T) {
	c := NewEngineCache(4)
	calls := 0
	_, _, err := c.GetKeyed("k", func() (*Engine, error) {
		calls++
		return nil, fmt.Errorf("boom")
	})
	if err == nil {
		t.Fatal("want build error")
	}
	if c.Len() != 0 {
		t.Fatal("failed build left a cache entry")
	}
	topo := NewHopperTorus(4, 4, 4)
	a, err := SparseAllocation(topo, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, hit, err := c.GetKeyed("k", func() (*Engine, error) { calls++; return NewEngine(topo, a) })
	if err != nil || hit || eng == nil {
		t.Fatalf("retry after failure: eng=%v hit=%v err=%v", eng, hit, err)
	}
	if calls != 2 {
		t.Fatalf("build ran %d times, want 2 (failure must not be cached)", calls)
	}
}

// TestEngineCacheStats churns many keys through a cache of mapd's
// default size: counters must stay exact (hits+misses = lookups,
// evictions = misses - residents), capacity must hold, and resident
// keys must keep hitting.
func TestEngineCacheStats(t *testing.T) {
	topo := NewHopperTorus(4, 4, 4)
	a, err := SparseAllocation(topo, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	build := func() (*Engine, error) { return NewEngine(topo, a) }
	c := NewEngineCache(32)
	const keys = 100
	for i := 0; i < keys; i++ {
		if _, hit, err := c.GetKeyed(fmt.Sprintf("key-%d", i), build); err != nil || hit {
			t.Fatalf("key-%d: hit=%v err=%v", i, hit, err)
		}
	}
	if c.Len() > c.Cap() {
		t.Fatalf("cache holds %d engines, cap %d", c.Len(), c.Cap())
	}
	hits, misses, evictions := c.Stats()
	if hits != 0 || misses != keys {
		t.Fatalf("stats = %d hits / %d misses, want 0/%d", hits, misses, keys)
	}
	if evictions != int64(keys-c.Len()) {
		t.Fatalf("evictions = %d, want misses - residents = %d", evictions, keys-c.Len())
	}
	// The residents are the most recently inserted keys, so a
	// reverse-order pass visits every resident before re-inserting any
	// evicted key: it must hit exactly Len() times (a same-order pass
	// would be the classic LRU sequential-scan worst case and hit zero).
	lenBefore := c.Len()
	resident := 0
	for i := keys - 1; i >= 0; i-- {
		if _, hit, err := c.GetKeyed(fmt.Sprintf("key-%d", i), build); err != nil {
			t.Fatal(err)
		} else if hit {
			resident++
		}
	}
	if resident != lenBefore {
		t.Fatalf("reverse pass hit %d keys, want the %d residents", resident, lenBefore)
	}
	hits, misses, _ = c.Stats()
	if int(hits) != resident {
		t.Fatalf("reverse pass hit %d times, stats say %d", resident, hits)
	}
	if misses != int64(2*keys)-hits {
		t.Fatalf("misses = %d, want %d", misses, int64(2*keys)-hits)
	}

	// Concurrent mixed traffic stays consistent: every lookup lands as
	// exactly one hit or miss.
	var wg sync.WaitGroup
	const goroutines, perG = 8, 50
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, _, err := c.GetKeyed(fmt.Sprintf("key-%d", (g*7+i)%keys), build); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	hits2, misses2, _ := c.Stats()
	if hits2+misses2 != hits+misses+goroutines*perG {
		t.Fatalf("lookup accounting drifted: %d+%d after %d more lookups on %d+%d",
			hits2, misses2, goroutines*perG, hits, misses)
	}
}

func TestNewCachedEngine(t *testing.T) {
	topo := NewHopperTorus(6, 6, 6)
	a, err := SparseAllocation(topo, 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := NewCachedEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	// Same fingerprint — even through a different but identical
	// topology value — returns the resident engine.
	e2, err := NewCachedEngine(NewHopperTorus(6, 6, 6), &Allocation{
		Nodes:        append([]int32(nil), a.Nodes...),
		ProcsPerNode: append([]int(nil), a.ProcsPerNode...),
	})
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatal("NewCachedEngine rebuilt an engine for an identical (topology, allocation) pair")
	}
	// Cached engines answer identically to fresh ones.
	tg, _, _ := engineFixture(t, 64)
	fresh, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.RunSolve(context.Background(), tg, Solve{Mapper: UWH, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e1.RunSolve(context.Background(), tg, Solve{Mapper: UWH, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want.Metrics != got.Metrics {
		t.Fatalf("cached engine diverged: %+v vs %+v", want.Metrics, got.Metrics)
	}
}
