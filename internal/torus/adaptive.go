package torus

// Dynamic-routing support (§III-C). The paper's congestion refinement
// assumes static routing; its closing remark sketches the extension:
// "For the networks with dynamic routing, an approximate refinement
// algorithm with a similar structure can be used" (citing the Blue
// Gene/P and /Q torus networks). This file models such a network: an
// adaptively routed torus spreads every message uniformly over its
// minimal dimension-ordered routes instead of committing to the fixed
// X-then-Y-then-Z order. A packet correcting offsets in d dimensions
// then has d! equally likely routes, and a link's load becomes an
// expectation over route choices.
//
// This is an approximation of true adaptive routing (which also
// interleaves steps of different dimensions mid-route), but it
// captures the property the refinement needs: congestion spreads over
// the minimal-path diversity between each node pair, so hot links are
// an expectation rather than a certainty.

// MultipathTopology is a Topology that can enumerate the minimal
// routes an adaptively routed network may pick between two nodes.
type MultipathTopology interface {
	Topology
	// ForEachMinimalRoute invokes fn once per distinct minimal route
	// from a to b and returns the number of routes. The route slice
	// is reused between invocations; callers must not retain it. For
	// a == b it returns 0 without calling fn.
	ForEachMinimalRoute(a, b int, fn func(route []int32)) int
	// NumMinimalRoutes returns the route count without enumerating.
	// For a torus it is d! for d dimensions with a nonzero minimal
	// offset.
	NumMinimalRoutes(a, b int) int
	// RouteScale returns a fixed-point denominator divisible by every
	// route count the topology can produce, so mult = RouteScale/P is
	// always integral (a torus returns ndims!, capped structure keeps
	// it small).
	RouteScale() int64
}

// RouteScale returns ndims! — every route count d! with d <= ndims
// divides it.
func (t *Torus) RouteScale() int64 {
	f := int64(1)
	for i := 2; i <= len(t.dims); i++ {
		f *= int64(i)
	}
	return f
}

// activeDims appends the dimensions in which a and b differ, i.e. the
// dimensions a minimal route must correct.
func (t *Torus) activeDims(a, b int, dst []int) []int {
	for d := range t.dims {
		if t.coordOf(a, d) != t.coordOf(b, d) {
			dst = append(dst, d)
		}
	}
	return dst
}

// NumMinimalRoutes returns d! where d is the number of dimensions
// with a nonzero offset between a and b (0 when a == b).
func (t *Torus) NumMinimalRoutes(a, b int) int {
	if a == b {
		return 0
	}
	n := 1
	cnt := 0
	for d := range t.dims {
		if t.coordOf(a, d) != t.coordOf(b, d) {
			cnt++
			n *= cnt
		}
	}
	return n
}

// routeDim appends the links correcting dimension d from cur to b's
// coordinate (shorter wrap side, positive on ties — the same
// deterministic choice Route makes) and returns the node reached.
func (t *Torus) routeDim(cur, b, d int, dst []int32) (int, []int32) {
	sz := t.dims[d]
	delta := t.coordOf(b, d) - t.coordOf(cur, d)
	if delta == 0 {
		return cur, dst
	}
	var steps, dir int
	if !t.wrap {
		steps, dir = delta, 0
		if delta < 0 {
			steps, dir = -delta, 1
		}
	} else {
		if delta < 0 {
			delta += sz
		}
		steps, dir = delta, 0
		if rev := sz - delta; rev < delta {
			steps, dir = rev, 1
		}
	}
	for s := 0; s < steps; s++ {
		dst = append(dst, int32(t.linkID(cur, d, dir)))
		cur = t.neighbor(cur, d, dir)
	}
	return cur, dst
}

// ForEachMinimalRoute enumerates the d! dimension-ordered minimal
// routes from a to b, where d is the number of dimensions with a
// nonzero offset. Each ordering yields a distinct path (two orderings
// first diverge at some position and step along different dimensions
// from the same node there). The route buffer is reused across
// invocations of fn.
func (t *Torus) ForEachMinimalRoute(a, b int, fn func(route []int32)) int {
	if a == b {
		return 0
	}
	var dimBuf [6]int
	active := t.activeDims(a, b, dimBuf[:0])
	count := 0
	route := make([]int32, 0, t.diam)
	emit := func(order []int) {
		route = route[:0]
		cur := a
		for _, d := range order {
			cur, route = t.routeDim(cur, b, d, route)
		}
		count++
		fn(route)
	}
	permute(active, emit)
	return count
}

// permute invokes fn with every permutation of s (Heap's algorithm,
// iterative; s is mutated in place and restored only incidentally).
func permute(s []int, fn func([]int)) {
	n := len(s)
	if n == 0 {
		fn(s)
		return
	}
	c := make([]int, n)
	fn(s)
	i := 0
	for i < n {
		if c[i] < i {
			if i%2 == 0 {
				s[0], s[i] = s[i], s[0]
			} else {
				s[c[i]], s[i] = s[i], s[c[i]]
			}
			fn(s)
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
}

var _ MultipathTopology = (*Torus)(nil)
