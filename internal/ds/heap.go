// Package ds provides the low-level data structures shared by the
// partitioning and mapping algorithms: an indexed 4-ary max-heap with
// update-key, whose total order makes its answers independent of its
// layout, compact integer sets and queues. All structures are
// deterministic and allocation-conscious; none of them is safe for
// concurrent mutation.
package ds

import "math"

// IndexedMaxHeap is a 4-ary max-heap over the items 0..n-1 keyed by
// int64 priorities. It supports O(log n) push, pop, removal and
// arbitrary key updates, which the mapping algorithms need for their
// connectivity and congestion heaps (Algorithms 1-3 of the paper).
//
// Items are ordered by key descending, then by id ascending. That order
// is total, so Pop, Peek and MaxKeyExcept answer from the heap's
// contents alone, never from its layout: any sequence of operations
// leaving the same (item, key) pairs gives the same answers, whatever
// the arity or sift strategy. Each slot holds its key beside its item,
// so a comparison reads one slot, and a sift moves a hole instead of
// swapping.
//
// An item is either in the heap or out of it; pushing an item that is
// already present panics, as does updating an absent item. Use
// Contains to query membership.
type IndexedMaxHeap struct {
	heap []slot  // 4-ary heap: the children of i are 4i+1..4i+4
	pos  []int32 // pos[item] = index in heap, or -1 if absent
}

// slot is one heap entry.
type slot struct {
	key  int64
	item int32
}

// before reports whether a outranks b: the higher key, then the lower
// id.
func before(a, b slot) bool {
	return a.key > b.key || a.key == b.key && a.item < b.item
}

// NewIndexedMaxHeap returns an empty heap able to hold items 0..n-1.
func NewIndexedMaxHeap(n int) *IndexedMaxHeap {
	h := &IndexedMaxHeap{
		heap: make([]slot, 0, n),
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
	h.heap = append(h.heap, slot{key, int32(item)})
	h.up(len(h.heap) - 1)
}

// Pop removes and returns the item with the maximum key.
// It panics on an empty heap.
func (h *IndexedMaxHeap) Pop() (item int, key int64) {
	if len(h.heap) == 0 {
		panic("ds: Pop of empty heap")
	}
	top := h.heap[0]
	last := len(h.heap) - 1
	h.pos[top.item] = -1
	h.heap[0] = h.heap[last]
	h.heap = h.heap[:last]
	if last > 0 {
		h.down(0)
	}
	return int(top.item), top.key
}

// Peek returns the maximum item without removing it.
// It panics on an empty heap.
func (h *IndexedMaxHeap) Peek() (item int, key int64) {
	if len(h.heap) == 0 {
		panic("ds: Peek of empty heap")
	}
	return int(h.heap[0].item), h.heap[0].key
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
	if s := h.heap[i]; !skip(int(s.item)) {
		return s.key
	}
	best := int64(math.MinInt64)
	for c := 4*i + 1; c <= 4*i+4 && c < len(h.heap); c++ {
		if k := h.maxKeyExcept(c, skip); k > best {
			best = k
		}
	}
	return best
}

// Update sets the key of an item already in the heap.
func (h *IndexedMaxHeap) Update(item int, key int64) {
	p := h.pos[item]
	if p < 0 {
		panic("ds: Update of item not in heap")
	}
	old := h.heap[p].key
	h.heap[p].key = key
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
	p := h.pos[item]
	if p < 0 {
		h.Push(item, delta)
		return
	}
	h.Update(item, h.heap[p].key+delta)
}

// Remove deletes item from the heap if present.
func (h *IndexedMaxHeap) Remove(item int) {
	p := int(h.pos[item])
	if p < 0 {
		return
	}
	last := len(h.heap) - 1
	h.pos[item] = -1
	moved := h.heap[last]
	h.heap = h.heap[:last]
	if p == last {
		return
	}
	h.heap[p] = moved
	if p > 0 && before(moved, h.heap[(p-1)/4]) {
		h.up(p)
	} else {
		h.down(p)
	}
}

// Clear empties the heap in O(len) time without releasing storage.
func (h *IndexedMaxHeap) Clear() {
	for _, s := range h.heap {
		h.pos[s.item] = -1
	}
	h.heap = h.heap[:0]
}

// Reset empties the heap and re-dimensions it for items 0..n-1,
// reusing the existing storage when it is large enough. It leaves the
// heap exactly as NewIndexedMaxHeap(n) would.
func (h *IndexedMaxHeap) Reset(n int) {
	if cap(h.pos) < n {
		h.heap = make([]slot, 0, n)
		h.pos = make([]int32, n)
	} else {
		h.heap = h.heap[:0]
		h.pos = h.pos[:n]
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
}

// up sifts the slot at i toward the root: the slots it outranks move
// down one level into the hole, and it lands where the hole stops.
func (h *IndexedMaxHeap) up(i int) {
	s := h.heap[i]
	for i > 0 {
		parent := (i - 1) / 4
		ps := h.heap[parent]
		if !before(s, ps) {
			break
		}
		h.heap[i] = ps
		h.pos[ps.item] = int32(i)
		i = parent
	}
	h.heap[i] = s
	h.pos[s.item] = int32(i)
}

// down sifts the slot at i toward the leaves: the best of each hole's
// up to four children moves up into it while it outranks the slot.
func (h *IndexedMaxHeap) down(i int) {
	s := h.heap[i]
	n := len(h.heap)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := min(first+4, n)
		for c := first + 1; c < end; c++ {
			if before(h.heap[c], h.heap[best]) {
				best = c
			}
		}
		bs := h.heap[best]
		if !before(bs, s) {
			break
		}
		h.heap[i] = bs
		h.pos[bs.item] = int32(i)
		i = best
	}
	h.heap[i] = s
	h.pos[s.item] = int32(i)
}
