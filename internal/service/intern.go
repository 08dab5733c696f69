package service

// The intern table behind the binary protocol's 16-byte section
// references: the server remembers the topology, allocation and
// task-graph sections it has decoded, keyed by the content
// fingerprint of their encoded bodies, so a repeat client can replace
// the bulky sections of a /v2 request with references. The table is a
// bounded LRU — an unresolvable reference is an explicit miss frame
// (HTTP 404, with a bitmask naming the sections to resend), exactly
// the recovery contract the /v1/remap fingerprint flow established.

import (
	"container/list"
	"sync"
	"sync/atomic"

	topomap "repro"
	"repro/internal/wirebin"
)

// internVal is one interned section in its post-decode, post-validate
// form — a reference hit skips not just the body bytes but the decode
// and canonicalization work:
//   - topology: the normalized spec and its canonical cache key
//   - allocation: the resolved spec and its cache key
//   - tasks: the built task graph itself (immutable once built, so
//     sharing it across concurrent solves is safe — the JSON batch
//     path already relies on that) and its taskGraphDigest, so a
//     reference hit reaches the solve memo without walking the graph
type internVal struct {
	kind     byte // wirebin.SecTopology | SecAllocation | SecTasks
	topo     TopologySpec
	topoKey  string
	alloc    AllocationSpec
	allocKey string
	tasks    *topomap.TaskGraph
	digest   uint64
}

type internTable struct {
	mu  sync.Mutex
	max int
	ll  *list.List // front = most recent; values are *internNode
	idx map[[wirebin.FingerprintLen]byte]*list.Element

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	resends   atomic.Int64
}

type internNode struct {
	id  [wirebin.FingerprintLen]byte
	val internVal
}

func newInternTable(max int) *internTable {
	return &internTable{
		max: max,
		ll:  list.New(),
		idx: make(map[[wirebin.FingerprintLen]byte]*list.Element),
	}
}

// get resolves a reference, marking the entry most recently used.
func (t *internTable) get(id [wirebin.FingerprintLen]byte) (internVal, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	el, ok := t.idx[id]
	if !ok {
		t.misses.Add(1)
		return internVal{}, false
	}
	t.hits.Add(1)
	t.ll.MoveToFront(el)
	return el.Value.(*internNode).val, true
}

// put interns a decoded section, evicting the least recently used
// entry past capacity.
func (t *internTable) put(id [wirebin.FingerprintLen]byte, v internVal) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.idx[id]; ok {
		t.ll.MoveToFront(el)
		el.Value.(*internNode).val = v
		return
	}
	t.idx[id] = t.ll.PushFront(&internNode{id: id, val: v})
	for t.ll.Len() > t.max {
		last := t.ll.Back()
		delete(t.idx, last.Value.(*internNode).id)
		t.ll.Remove(last)
		t.evictions.Add(1)
	}
}

// resolve turns one mode-tagged request section into its interned
// value: a reference through the table (ok is false on a miss, or when
// the entry is a different kind of section), a full or resent body
// through decode, interned under the body's fingerprint.
func (t *internTable) resolve(sec wirebin.Section, kind byte, decode func(body []byte) (internVal, error)) (v internVal, ok bool, err error) {
	if id, isRef := sec.IsRef(); isRef {
		v, hit := t.get(id)
		return v, hit && v.kind == kind, nil
	}
	if sec.Mode == wirebin.SectionResend {
		t.resends.Add(1)
	}
	if v, err = decode(sec.Body); err != nil {
		return v, false, err
	}
	v.kind = kind
	t.put(wirebin.Fingerprint(sec.Body), v)
	return v, true, nil
}

func (t *internTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ll.Len()
}

func (t *internTable) stats() (hits, misses, evictions, resends int64) {
	return t.hits.Load(), t.misses.Load(), t.evictions.Load(), t.resends.Load()
}
