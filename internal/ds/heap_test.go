package ds

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestIndexedMaxHeapBasic(t *testing.T) {
	h := NewIndexedMaxHeap(8)
	if h.Len() != 0 {
		t.Fatalf("new heap Len = %d, want 0", h.Len())
	}
	h.Push(3, 30)
	h.Push(1, 10)
	h.Push(5, 50)
	h.Push(2, 20)
	if got := h.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if item, key := h.Peek(); item != 5 || key != 50 {
		t.Fatalf("Peek = (%d,%d), want (5,50)", item, key)
	}
	item, key := h.Pop()
	if item != 5 || key != 50 {
		t.Fatalf("Pop = (%d,%d), want (5,50)", item, key)
	}
	if h.Contains(5) {
		t.Fatal("heap still contains popped item 5")
	}
	item, _ = h.Pop()
	if item != 3 {
		t.Fatalf("second Pop item = %d, want 3", item)
	}
}

func TestIndexedMaxHeapUpdate(t *testing.T) {
	h := NewIndexedMaxHeap(4)
	h.Push(0, 1)
	h.Push(1, 2)
	h.Push(2, 3)
	h.Update(0, 100)
	if item, key := h.Peek(); item != 0 || key != 100 {
		t.Fatalf("after Update Peek = (%d,%d), want (0,100)", item, key)
	}
	h.Update(0, -5)
	if item, _ := h.Peek(); item != 2 {
		t.Fatalf("after decrease Peek item = %d, want 2", item)
	}
}

func TestIndexedMaxHeapAdd(t *testing.T) {
	h := NewIndexedMaxHeap(4)
	h.Add(2, 5) // absent: behaves like Push
	if item, key := h.Peek(); !h.Contains(2) || item != 2 || key != 5 {
		t.Fatalf("Add on absent item: Contains=%v Peek=(%d,%d)", h.Contains(2), item, key)
	}
	h.Add(2, 7)
	if _, key := h.Peek(); key != 12 {
		t.Fatalf("Add accumulate: key = %d, want 12", key)
	}
	h.Add(2, -20)
	if _, key := h.Peek(); key != -8 {
		t.Fatalf("Add negative: key = %d, want -8", key)
	}
}

func TestIndexedMaxHeapRemove(t *testing.T) {
	h := NewIndexedMaxHeap(6)
	for i := 0; i < 6; i++ {
		h.Push(i, int64(i))
	}
	h.Remove(5)
	h.Remove(0)
	h.Remove(0) // double remove is a no-op
	if h.Len() != 4 {
		t.Fatalf("Len after removes = %d, want 4", h.Len())
	}
	if item, _ := h.Peek(); item != 4 {
		t.Fatalf("Peek after removes = %d, want 4", item)
	}
}

func TestIndexedMaxHeapDeterministicTies(t *testing.T) {
	h := NewIndexedMaxHeap(5)
	for i := 4; i >= 0; i-- {
		h.Push(i, 7)
	}
	// All keys equal: pops must come out in ascending id order.
	for want := 0; want < 5; want++ {
		item, _ := h.Pop()
		if item != want {
			t.Fatalf("tie-break pop = %d, want %d", item, want)
		}
	}
}

func TestIndexedMaxHeapPanics(t *testing.T) {
	h := NewIndexedMaxHeap(2)
	mustPanic(t, "Pop empty", func() { h.Pop() })
	mustPanic(t, "Peek empty", func() { h.Peek() })
	h.Push(0, 1)
	mustPanic(t, "double Push", func() { h.Push(0, 2) })
	mustPanic(t, "Update absent", func() { h.Update(1, 3) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}

// Property: popping everything yields keys in non-increasing order and
// returns exactly the pushed items, for arbitrary key sets.
func TestIndexedMaxHeapSortProperty(t *testing.T) {
	prop := func(keys []int64) bool {
		if len(keys) > 512 {
			keys = keys[:512]
		}
		h := NewIndexedMaxHeap(len(keys))
		for i, k := range keys {
			h.Push(i, k)
		}
		got := make([]int64, 0, len(keys))
		for h.Len() > 0 {
			_, k := h.Pop()
			got = append(got, k)
		}
		if len(got) != len(keys) {
			return false
		}
		want := append([]int64(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] > want[j] })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a long random sequence of push/update/remove operations
// keeps the heap consistent with a reference map implementation.
func TestIndexedMaxHeapRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 64
	h := NewIndexedMaxHeap(n)
	ref := map[int]int64{}
	for step := 0; step < 5000; step++ {
		item := rng.Intn(n)
		switch rng.Intn(4) {
		case 0:
			if _, ok := ref[item]; !ok {
				k := int64(rng.Intn(1000) - 500)
				h.Push(item, k)
				ref[item] = k
			}
		case 1:
			if _, ok := ref[item]; ok {
				k := int64(rng.Intn(1000) - 500)
				h.Update(item, k)
				ref[item] = k
			}
		case 2:
			h.Remove(item)
			delete(ref, item)
		case 3:
			if len(ref) > 0 {
				it, k := h.Peek()
				want, ok := ref[it]
				if !ok || want != k {
					t.Fatalf("step %d: Peek item %d key %d not in ref (%v)", step, it, k, ref[it])
				}
				for ri, rk := range ref {
					if rk > k || (rk == k && ri < it) {
						t.Fatalf("step %d: Peek returned (%d,%d) but ref has better (%d,%d)", step, it, k, ri, rk)
					}
				}
			}
		}
		if h.Len() != len(ref) {
			t.Fatalf("step %d: Len %d != ref %d", step, h.Len(), len(ref))
		}
	}
}

func TestIndexedMaxHeapClear(t *testing.T) {
	h := NewIndexedMaxHeap(10)
	for i := 0; i < 10; i++ {
		h.Push(i, int64(i*i))
	}
	h.Clear()
	if h.Len() != 0 {
		t.Fatalf("Len after Clear = %d", h.Len())
	}
	for i := 0; i < 10; i++ {
		if h.Contains(i) {
			t.Fatalf("item %d still present after Clear", i)
		}
	}
	// Heap must be reusable after Clear.
	h.Push(3, 1)
	if item, _ := h.Peek(); item != 3 {
		t.Fatal("heap unusable after Clear")
	}
}

// TestMaxKeyExcept checks the read-only max query against a brute
// force over random heaps and random skip sets, including the
// everything-skipped and empty-heap corners.
func TestMaxKeyExcept(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(24)
		h := NewIndexedMaxHeap(n)
		keys := make(map[int]int64)
		for item := 0; item < n; item++ {
			if rng.Intn(4) == 0 {
				continue // leave some items out of the heap
			}
			k := int64(rng.Intn(7)) // narrow range: force key ties
			h.Push(item, k)
			keys[item] = k
		}
		skip := make(map[int]bool)
		for item := range keys {
			if rng.Intn(3) == 0 {
				skip[item] = true
			}
		}
		want := int64(math.MinInt64)
		for item, k := range keys {
			if !skip[item] && k > want {
				want = k
			}
		}
		got := h.MaxKeyExcept(func(item int) bool { return skip[item] })
		if got != want {
			t.Fatalf("trial %d: MaxKeyExcept = %d, want %d (n=%d heap=%d skipped=%d)",
				trial, got, want, n, h.Len(), len(skip))
		}
	}
	empty := NewIndexedMaxHeap(4)
	if got := empty.MaxKeyExcept(func(int) bool { return false }); got != math.MinInt64 {
		t.Fatalf("empty heap MaxKeyExcept = %d, want MinInt64", got)
	}
}
