// Package arena recycles the per-solve scratch buffers of the mapping
// pipeline. A solve allocates the same shapes every time — node-sized
// mark/level arrays for BFS, task-sized gain vectors, indexed heaps,
// ring-buffer queues — and a resident Engine serves thousands of
// solves against one topology, so steady state should reuse yesterday's
// buffers instead of making the garbage collector shred them.
//
// An Arena is a set of sync.Pool free lists keyed by element type.
// Borrowed slices come back zeroed to the requested length (exactly
// what a fresh make() would give), so call sites swap make(...) for
// a.Int32s(...) without behavioural change. All methods are safe for
// concurrent use — parallel subtasks of one solve borrow from the
// same arena — and nil-safe: a nil *Arena degrades to plain
// allocation, so serial facades need no special casing.
package arena

import (
	"sync"

	"repro/internal/ds"
)

// Arena is a reusable scratch allocator. The zero value is ready to
// use; a nil *Arena allocates fresh on every call and discards on
// every Put.
type Arena struct {
	i8     slicePool[int8]
	i32    slicePool[int32]
	i64    slicePool[int64]
	b      slicePool[bool]
	edges  slicePool[ds.EdgeTriple]
	heaps  sync.Pool
	queues sync.Pool
}

// New returns an empty Arena.
func New() *Arena { return &Arena{} }

// slicePool recycles slices through pointer-sized boxes: storing a
// bare slice in a sync.Pool boxes its three-word header on every Put
// (staticcheck SA6002) — an allocation per pool transaction, in the
// paths the arena exists to de-allocate. The boxes themselves cycle
// through a second pool, so the steady state allocates nothing.
type slicePool[T any] struct {
	full  sync.Pool // *sliceBox[T] carrying a slice
	empty sync.Pool // *sliceBox[T] without one
}

type sliceBox[T any] struct{ s []T }

// take fetches a pooled slice with capacity >= n, or reports failure
// so the caller allocates. Undersized pool entries are put back
// rather than dropped: a transient small request must not evict the
// full-size buffer the steady state needs.
func (p *slicePool[T]) take(n int) ([]T, bool) {
	v := p.full.Get()
	if v == nil {
		return nil, false
	}
	b := v.(*sliceBox[T])
	if cap(b.s) < n {
		p.full.Put(b)
		return nil, false
	}
	s := b.s[:n]
	b.s = nil
	p.empty.Put(b)
	return s, true
}

// put returns a slice to the pool.
func (p *slicePool[T]) put(s []T) {
	if cap(s) == 0 {
		return
	}
	b, _ := p.empty.Get().(*sliceBox[T])
	if b == nil {
		b = &sliceBox[T]{}
	}
	b.s = s[:0]
	p.full.Put(b)
}

func zero[T any](s []T) {
	var z T
	for i := range s {
		s[i] = z
	}
}

// Int8s borrows a zeroed []int8 of length n.
func (a *Arena) Int8s(n int) []int8 {
	if a != nil {
		if s, ok := a.i8.take(n); ok {
			zero(s)
			return s
		}
	}
	return make([]int8, n)
}

// PutInt8s returns a slice borrowed with Int8s.
func (a *Arena) PutInt8s(s []int8) {
	if a != nil {
		a.i8.put(s)
	}
}

// Int32s borrows a zeroed []int32 of length n.
func (a *Arena) Int32s(n int) []int32 {
	if a != nil {
		if s, ok := a.i32.take(n); ok {
			zero(s)
			return s
		}
	}
	return make([]int32, n)
}

// PutInt32s returns a slice borrowed with Int32s.
func (a *Arena) PutInt32s(s []int32) {
	if a != nil {
		a.i32.put(s)
	}
}

// Int64s borrows a zeroed []int64 of length n.
func (a *Arena) Int64s(n int) []int64 {
	if a != nil {
		if s, ok := a.i64.take(n); ok {
			zero(s)
			return s
		}
	}
	return make([]int64, n)
}

// PutInt64s returns a slice borrowed with Int64s.
func (a *Arena) PutInt64s(s []int64) {
	if a != nil {
		a.i64.put(s)
	}
}

// Bools borrows a zeroed []bool of length n.
func (a *Arena) Bools(n int) []bool {
	if a != nil {
		if s, ok := a.b.take(n); ok {
			zero(s)
			return s
		}
	}
	return make([]bool, n)
}

// PutBools returns a slice borrowed with Bools.
func (a *Arena) PutBools(s []bool) {
	if a != nil {
		a.b.put(s)
	}
}

// Edges borrows a zeroed []ds.EdgeTriple of length n — the staging
// buffer the CSR graph builders bucket by source and merge in place
// before laying out the final arrays (which escape and therefore stay
// freshly allocated).
func (a *Arena) Edges(n int) []ds.EdgeTriple {
	if a != nil {
		if s, ok := a.edges.take(n); ok {
			zero(s)
			return s
		}
	}
	return make([]ds.EdgeTriple, n)
}

// PutEdges returns a slice borrowed with Edges.
func (a *Arena) PutEdges(s []ds.EdgeTriple) {
	if a != nil {
		a.edges.put(s)
	}
}

// MaxHeap borrows an empty indexed max-heap addressing items 0..n-1.
func (a *Arena) MaxHeap(n int) *ds.IndexedMaxHeap {
	if a != nil {
		if v := a.heaps.Get(); v != nil {
			h := v.(*ds.IndexedMaxHeap)
			h.Reset(n)
			return h
		}
	}
	return ds.NewIndexedMaxHeap(n)
}

// PutMaxHeap returns a heap borrowed with MaxHeap.
func (a *Arena) PutMaxHeap(h *ds.IndexedMaxHeap) {
	if a != nil && h != nil {
		a.heaps.Put(h)
	}
}

// Queue borrows an empty FIFO queue.
func (a *Arena) Queue() *ds.Queue {
	if a != nil {
		if v := a.queues.Get(); v != nil {
			q := v.(*ds.Queue)
			q.Clear()
			return q
		}
	}
	return ds.NewQueue(256)
}

// PutQueue returns a queue borrowed with Queue.
func (a *Arena) PutQueue(q *ds.Queue) {
	if a != nil && q != nil {
		a.queues.Put(q)
	}
}
