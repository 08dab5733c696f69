package ds

import "sort"

// IntSet is a sorted set of ints stored as a slice. It backs the
// commTasks[e] sets of Algorithm 3 (the paper used std::set); a sorted
// slice gives the same O(log n) membership with far better locality at
// the small cardinalities involved.
type IntSet struct {
	items []int32
}

// Add inserts x, reporting whether it was absent.
func (s *IntSet) Add(x int) bool {
	i := sort.Search(len(s.items), func(i int) bool { return s.items[i] >= int32(x) })
	if i < len(s.items) && s.items[i] == int32(x) {
		return false
	}
	s.items = append(s.items, 0)
	copy(s.items[i+1:], s.items[i:])
	s.items[i] = int32(x)
	return true
}

// Delete removes x, reporting whether it was present.
func (s *IntSet) Delete(x int) bool {
	i := sort.Search(len(s.items), func(i int) bool { return s.items[i] >= int32(x) })
	if i >= len(s.items) || s.items[i] != int32(x) {
		return false
	}
	copy(s.items[i:], s.items[i+1:])
	s.items = s.items[:len(s.items)-1]
	return true
}

// Items returns the sorted members; the slice must not be mutated.
func (s *IntSet) Items() []int32 { return s.items }

// Queue is a simple FIFO of ints backed by a ring buffer, used by the
// many BFS traversals in the mapping algorithms.
type Queue struct {
	buf        []int32
	head, tail int // tail is one past the last element
	n          int
}

// NewQueue returns a queue with the given initial capacity.
func NewQueue(capacity int) *Queue {
	if capacity < 4 {
		capacity = 4
	}
	return &Queue{buf: make([]int32, capacity)}
}

// Len reports the number of queued items.
func (q *Queue) Len() int { return q.n }

// Push appends x.
func (q *Queue) Push(x int) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[q.tail] = int32(x)
	q.tail = (q.tail + 1) % len(q.buf)
	q.n++
}

// Pop removes and returns the oldest item; it panics when empty.
func (q *Queue) Pop() int {
	if q.n == 0 {
		panic("ds: Pop of empty queue")
	}
	x := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return int(x)
}

// Clear empties the queue without releasing storage.
func (q *Queue) Clear() { q.head, q.tail, q.n = 0, 0, 0 }

func (q *Queue) grow() {
	nb := make([]int32, 2*len(q.buf))
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = nb
	q.head, q.tail = 0, q.n
}
