package service

// White-box tests of the result cache's retention policy: eviction is
// recency-ordered but remap-frequency-weighted, refreshes keep an
// entry's age and heat, and the per-age counters land in the right
// buckets.

import (
	"fmt"
	"testing"
	"time"
)

func fpEntry(i int) resultEntry { return resultEntry{fp: fmt.Sprintf("map:%d", i)} }

// TestResultCacheFrequencyWeightedEviction: an entry that keeps being
// remapped survives recency churn that plain LRU would evict it
// under; the victim is the coldest low-heat entry instead.
func TestResultCacheFrequencyWeightedEviction(t *testing.T) {
	c := newResultCache(4)
	for i := 0; i < 4; i++ {
		c.put(fpEntry(i))
	}
	// Heat entry 0 twice, the rest once. Recency order front→back is
	// then 3,2,1,0 — the hot entry is also the coldest.
	c.get("map:0")
	c.get("map:0")
	for i := 1; i < 4; i++ {
		c.get(fmt.Sprintf("map:%d", i))
	}
	c.put(fpEntry(4)) // over capacity: someone must go

	if _, ok := c.get("map:0"); !ok {
		t.Fatal("remap-hot entry was evicted; retention is not frequency-weighted")
	}
	// The victim is the least-remapped among the cold end: entry 1.
	if _, ok := c.get("map:1"); ok {
		t.Fatal("expected the coldest low-heat entry (map:1) to be the victim")
	}
	if h, m, e := c.stats(); e != 1 || m != 1 || h != 6 {
		t.Fatalf("stats hits=%d misses=%d evictions=%d, want 6/1/1", h, m, e)
	}
}

// TestResultCacheZeroHeatIsPlainLRU: with no remap heat anywhere the
// policy degenerates to LRU — the scan stops at the first zero-heat
// back entry.
func TestResultCacheZeroHeatIsPlainLRU(t *testing.T) {
	c := newResultCache(3)
	for i := 0; i < 4; i++ {
		c.put(fpEntry(i))
	}
	if _, ok := c.get("map:0"); ok {
		t.Fatal("LRU entry survived zero-heat eviction")
	}
	for i := 1; i < 4; i++ {
		if _, ok := c.get(fmt.Sprintf("map:%d", i)); !ok {
			t.Fatalf("entry %d missing after zero-heat eviction", i)
		}
	}
}

// TestResultCacheNeverEvictsFreshInsert: even when every resident
// entry is remap-hot, the entry just inserted is not the victim — its
// fingerprint is the one the handler is about to return.
func TestResultCacheNeverEvictsFreshInsert(t *testing.T) {
	c := newResultCache(3)
	for i := 0; i < 3; i++ {
		c.put(fpEntry(i))
		c.get(fmt.Sprintf("map:%d", i)) // everyone hot
	}
	c.put(fpEntry(9))
	if _, ok := c.get("map:9"); !ok {
		t.Fatal("freshly inserted entry was evicted by hotter residents")
	}
}

// TestResultCacheRefreshKeepsAgeAndHeat: re-putting the same
// fingerprint refreshes the payload but neither resets the entry's
// creation time nor its remap count.
func TestResultCacheRefreshKeepsAgeAndHeat(t *testing.T) {
	c := newResultCache(4)
	c.put(fpEntry(0))
	c.get("map:0")
	n := c.idx["map:0"].Value.(*resultNode)
	created := n.created
	c.put(fpEntry(0))
	n = c.idx["map:0"].Value.(*resultNode)
	if n.remaps != 1 {
		t.Fatalf("refresh reset remap heat: %d, want 1", n.remaps)
	}
	if !n.created.Equal(created) {
		t.Fatal("refresh reset the entry's creation time")
	}
	if c.ll.Len() != 1 {
		t.Fatalf("refresh duplicated the entry: len %d", c.ll.Len())
	}
}

// TestResultAgeBuckets pins the bucket boundaries and the by-age
// counter plumbing for both hits and evictions.
func TestResultAgeBuckets(t *testing.T) {
	for _, tc := range []struct {
		age  time.Duration
		want int
	}{
		{0, 0}, {999 * time.Millisecond, 0},
		{time.Second, 1}, {9 * time.Second, 1},
		{10 * time.Second, 2}, {59 * time.Second, 2},
		{time.Minute, 3}, {9 * time.Minute, 3},
		{10 * time.Minute, 4}, {time.Hour, 4},
	} {
		if got := resultAgeBucket(tc.age); got != tc.want {
			t.Fatalf("resultAgeBucket(%v) = %d (%s), want %d (%s)",
				tc.age, got, resultAgeLabels[got], tc.want, resultAgeLabels[tc.want])
		}
	}

	c := newResultCache(1)
	c.put(fpEntry(0))
	// Backdate the entry, then hit it: the hit lands in lt_1m.
	c.idx["map:0"].Value.(*resultNode).created = time.Now().Add(-30 * time.Second)
	c.get("map:0")
	// A second insert evicts the backdated entry: eviction in lt_1m
	// too... except the fresh-insert guard never evicts the MRU of a
	// 1-entry cache, so grow to 2 residents first.
	c = newResultCache(2)
	c.put(fpEntry(0))
	c.idx["map:0"].Value.(*resultNode).created = time.Now().Add(-30 * time.Second)
	c.put(fpEntry(1))
	c.put(fpEntry(2)) // evicts the backdated map:0

	hits, evictions := c.byAge()
	if len(hits) != resultAgeBuckets || len(evictions) != resultAgeBuckets {
		t.Fatalf("byAge sizes %d/%d, want %d", len(hits), len(evictions), resultAgeBuckets)
	}
	if evictions["lt_1m"] != 1 {
		t.Fatalf("evictions by age = %v, want lt_1m=1", evictions)
	}
	if _, ok := c.idx["map:0"]; ok {
		t.Fatal("backdated cold entry survived; wrong victim")
	}
}

// TestStatusExportsRetentionCounters: the /statusz payload carries the
// by-age maps and the intern-table counters with every label present.
func TestStatusExportsRetentionCounters(t *testing.T) {
	s := New(Config{})
	s.results.put(fpEntry(0))
	s.results.get("map:0")
	st := s.Status()
	for _, l := range resultAgeLabels {
		if _, ok := st.ResultHitsByAge[l]; !ok {
			t.Fatalf("result_hits_by_age missing bucket %q", l)
		}
		if _, ok := st.ResultEvictionsByAge[l]; !ok {
			t.Fatalf("result_evictions_by_age missing bucket %q", l)
		}
	}
	if st.ResultHitsByAge["lt_1s"] != 1 {
		t.Fatalf("hits_by_age[lt_1s] = %d, want 1", st.ResultHitsByAge["lt_1s"])
	}
	if st.InternCapacity == 0 {
		t.Fatal("intern capacity missing from /statusz")
	}
	if st.ProtocolRequests[protoJSONLabel] != 0 || st.ProtocolRequests[protoBinaryLabel] != 0 {
		t.Fatalf("protocol_requests = %v, want zeros on a fresh server", st.ProtocolRequests)
	}
}

// TestResultCacheReqKeysBounded: distinct requests that produce one
// placement all index its entry, but at most maxReqKeys of them — the
// oldest key drops out of the memo — and evicting the entry unindexes
// every key it carried.
func TestResultCacheReqKeysBounded(t *testing.T) {
	c := newResultCache(2)
	for i := 0; i <= maxReqKeys; i++ {
		c.putReq(fmt.Sprintf("req:%d", i), fpEntry(0))
	}
	if _, ok := c.getReq("req:0"); ok {
		t.Fatal("the oldest request key outlived the per-entry bound")
	}
	for i := 1; i <= maxReqKeys; i++ {
		if _, ok := c.getReq(fmt.Sprintf("req:%d", i)); !ok {
			t.Fatalf("request key %d lost its entry", i)
		}
	}
	c.put(fpEntry(1))
	c.put(fpEntry(2)) // evicts map:0, the coldest
	if _, ok := c.idx["map:0"]; ok || len(c.byReq) != 0 {
		t.Fatalf("eviction left %d memo keys behind", len(c.byReq))
	}
}
