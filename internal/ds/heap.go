// Package ds provides the low-level data structures shared by the
// partitioning and mapping algorithms: an indexed binary max-heap with
// update-key, compact integer sets and queues. All structures are
// deterministic and allocation-conscious; none of them is safe for
// concurrent mutation.
package ds

import "math"

// IndexedMaxHeap is a binary max-heap over the items 0..n-1 keyed by
// int64 priorities. It supports O(log n) push, pop, removal and
// arbitrary key updates, which the mapping algorithms need for their
// connectivity and congestion heaps (Algorithms 1-3 of the paper).
//
// An item is either in the heap or out of it; pushing an item that is
// already present panics, as does updating an absent item. Use
// Contains to query membership.
type IndexedMaxHeap struct {
	keys []int64 // keys[item] is valid only while pos[item] >= 0
	heap []int32 // heap of item ids
	pos  []int32 // pos[item] = index in heap, or -1 if absent
}

// NewIndexedMaxHeap returns an empty heap able to hold items 0..n-1.
func NewIndexedMaxHeap(n int) *IndexedMaxHeap {
	h := &IndexedMaxHeap{
		keys: make([]int64, n),
		heap: make([]int32, 0, n),
		pos:  make([]int32, n),
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// Len reports the number of items currently in the heap.
func (h *IndexedMaxHeap) Len() int { return len(h.heap) }

// Contains reports whether item is currently in the heap.
func (h *IndexedMaxHeap) Contains(item int) bool { return h.pos[item] >= 0 }

// Push inserts item with the given key.
func (h *IndexedMaxHeap) Push(item int, key int64) {
	if h.pos[item] >= 0 {
		panic("ds: Push of item already in heap")
	}
	h.keys[item] = key
	h.pos[item] = int32(len(h.heap))
	h.heap = append(h.heap, int32(item))
	h.up(len(h.heap) - 1)
}

// Pop removes and returns the item with the maximum key.
// It panics on an empty heap.
func (h *IndexedMaxHeap) Pop() (item int, key int64) {
	if len(h.heap) == 0 {
		panic("ds: Pop of empty heap")
	}
	top := h.heap[0]
	h.swap(0, len(h.heap)-1)
	h.heap = h.heap[:len(h.heap)-1]
	h.pos[top] = -1
	if len(h.heap) > 0 {
		h.down(0)
	}
	return int(top), h.keys[top]
}

// Peek returns the maximum item without removing it.
// It panics on an empty heap.
func (h *IndexedMaxHeap) Peek() (item int, key int64) {
	if len(h.heap) == 0 {
		panic("ds: Peek of empty heap")
	}
	return int(h.heap[0]), h.keys[h.heap[0]]
}

// MaxKeyExcept returns the maximum key over the items for which skip
// reports false, or math.MinInt64 when the heap is empty or every item
// is skipped. It is read-only — safe for any number of concurrent
// callers as long as nobody mutates the heap — and visits O(k) nodes
// for k skipped items: the descent only continues below a skipped
// node, because an unskipped node already bounds its whole subtree.
// The congestion refinement uses it to score hypothetical swaps
// without temporarily updating the shared heap.
func (h *IndexedMaxHeap) MaxKeyExcept(skip func(item int) bool) int64 {
	return h.maxKeyExcept(0, skip)
}

func (h *IndexedMaxHeap) maxKeyExcept(i int, skip func(item int) bool) int64 {
	if i >= len(h.heap) {
		return math.MinInt64
	}
	it := h.heap[i]
	if !skip(int(it)) {
		return h.keys[it]
	}
	best := h.maxKeyExcept(2*i+1, skip)
	if r := h.maxKeyExcept(2*i+2, skip); r > best {
		best = r
	}
	return best
}

// Update sets the key of an item already in the heap.
func (h *IndexedMaxHeap) Update(item int, key int64) {
	p := h.pos[item]
	if p < 0 {
		panic("ds: Update of item not in heap")
	}
	old := h.keys[item]
	h.keys[item] = key
	switch {
	case key > old:
		h.up(int(p))
	case key < old:
		h.down(int(p))
	}
}

// Add increases (or decreases, for negative delta) the key of item by
// delta. If the item is absent it is pushed with key delta. This is
// the conn.update operation of Algorithm 1.
func (h *IndexedMaxHeap) Add(item int, delta int64) {
	if h.pos[item] < 0 {
		h.Push(item, delta)
		return
	}
	h.Update(item, h.keys[item]+delta)
}

// Remove deletes item from the heap if present.
func (h *IndexedMaxHeap) Remove(item int) {
	p := h.pos[item]
	if p < 0 {
		return
	}
	last := len(h.heap) - 1
	h.swap(int(p), last)
	h.heap = h.heap[:last]
	h.pos[item] = -1
	if int(p) < last {
		h.down(int(p))
		h.up(int(p))
	}
}

// Clear empties the heap in O(len) time without releasing storage.
func (h *IndexedMaxHeap) Clear() {
	for _, it := range h.heap {
		h.pos[it] = -1
	}
	h.heap = h.heap[:0]
}

// Reset empties the heap and re-dimensions it for items 0..n-1,
// reusing the existing storage when it is large enough. It leaves the
// heap exactly as NewIndexedMaxHeap(n) would.
func (h *IndexedMaxHeap) Reset(n int) {
	if cap(h.pos) < n {
		h.keys = make([]int64, n)
		h.heap = make([]int32, 0, n)
		h.pos = make([]int32, n)
	} else {
		h.keys = h.keys[:n]
		h.heap = h.heap[:0]
		h.pos = h.pos[:n]
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
}

func (h *IndexedMaxHeap) less(i, j int) bool {
	ki, kj := h.keys[h.heap[i]], h.keys[h.heap[j]]
	if ki != kj {
		return ki > kj // max-heap: "less" means higher priority
	}
	return h.heap[i] < h.heap[j] // deterministic tie-break by id
}

func (h *IndexedMaxHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = int32(i)
	h.pos[h.heap[j]] = int32(j)
}

func (h *IndexedMaxHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *IndexedMaxHeap) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.less(l, best) {
			best = l
		}
		if r < n && h.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}
