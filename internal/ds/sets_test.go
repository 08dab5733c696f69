package ds

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestIntSetBasic(t *testing.T) {
	var s IntSet
	if len(s.Items()) != 0 {
		t.Fatal("fresh set should be empty")
	}
	if !s.Add(5) || !s.Add(1) || !s.Add(3) {
		t.Fatal("Add of new items should report true")
	}
	if s.Add(3) {
		t.Fatal("Add of existing item should report false")
	}
	if got, want := s.Items(), []int32{1, 3, 5}; !slices.Equal(got, want) {
		t.Fatalf("Items = %v, want %v", got, want)
	}
	if !s.Delete(3) || s.Delete(3) {
		t.Fatal("Delete semantics wrong")
	}
	if got, want := s.Items(), []int32{1, 5}; !slices.Equal(got, want) {
		t.Fatalf("Items after Delete = %v, want %v", got, want)
	}
}

func TestIntSetMatchesMapProperty(t *testing.T) {
	prop := func(ops []int16) bool {
		var s IntSet
		ref := map[int]bool{}
		for _, op := range ops {
			x := int(op) % 50
			if op%2 == 0 {
				s.Add(x)
				ref[x] = true
			} else {
				s.Delete(x)
				delete(ref, x)
			}
		}
		if len(s.Items()) != len(ref) {
			return false
		}
		var want []int
		for k := range ref {
			want = append(want, k)
		}
		sort.Ints(want)
		items := s.Items()
		for i, w := range want {
			if int(items[i]) != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(2)
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d, want 100", q.Len())
	}
	for i := 0; i < 100; i++ {
		if got := q.Pop(); got != i {
			t.Fatalf("Pop = %d, want %d", got, i)
		}
	}
	mustPanic(t, "Pop empty queue", func() { q.Pop() })
}

func TestQueueInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := NewQueue(4)
	var ref []int
	for step := 0; step < 10000; step++ {
		if rng.Intn(2) == 0 || len(ref) == 0 {
			v := rng.Intn(1 << 20)
			q.Push(v)
			ref = append(ref, v)
		} else {
			got := q.Pop()
			if got != ref[0] {
				t.Fatalf("step %d: Pop = %d, want %d", step, got, ref[0])
			}
			ref = ref[1:]
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(ref))
		}
	}
}

func TestQueueClear(t *testing.T) {
	q := NewQueue(4)
	q.Push(1)
	q.Push(2)
	q.Clear()
	if q.Len() != 0 {
		t.Fatal("Clear failed")
	}
	q.Push(9)
	if q.Pop() != 9 {
		t.Fatal("queue unusable after Clear")
	}
}
