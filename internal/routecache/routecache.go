// Package routecache precomputes the routing and distance state a
// mapping engine reuses across requests: for a fixed (topology,
// allocation) pair it tabulates the hop distance and the static route
// of every allocated node pair once, and serves them from dense
// read-only tables afterwards. The tables are built from the
// underlying topology's own HopDist/Route answers, so a Table is
// observationally identical to the raw topology — mappings and
// metrics computed through it are byte-for-byte the same — while
// queries between allocated nodes (the hot path of every mapping
// algorithm and of the metric evaluation) become O(1) table lookups
// instead of per-call route recomputation.
//
// A Table answers in two index spaces. As a torus.Topology it takes
// node ids, for construction, BFS walks, route enumeration and the
// metrics. The mapping stages instead hold a placement as allocation
// indices (Local) and read a distance row (DistRow) or a route
// (RouteLinks) straight from the tables.
//
// The table is immutable after construction and therefore safe for
// any number of concurrent readers, which is what makes one engine
// serve parallel mapping requests race-free.
package routecache

import (
	"fmt"

	"repro/internal/torus"
)

// Table is the route cache of one allocation: a torus.Topology with
// tabulated HopDist/Route for allocated node pairs and delegation for
// everything else, plus allocation-order accessors. Allocation index
// i names the node allocNodes[i] of the New or Patch call that built
// the table.
type Table struct {
	base  torus.Topology
	idx   []int32 // node id -> allocation index, -1 when not allocated
	nodes []int32 // allocation index -> node id
	n     int     // number of allocated nodes

	dist  []int32 // n*n hop distances, row i from nodes[i]
	off   []int32 // n*n+1 CSR offsets into links
	links []int32 // concatenated route link ids
}

// New returns the table of base with the pairwise routing state of
// allocNodes precomputed. The table preserves every capability of the
// base topology the mapping stack uses: torus.CoordsOf and
// torus.MultipathOf see through it via Unwrap. allocNodes must be
// distinct valid node ids of base.
func New(base torus.Topology, allocNodes []int32) (*Table, error) {
	t, _, err := build(base, nil, allocNodes)
	return t, err
}

// build tabulates every ordered pair of allocNodes over base. A pair
// whose two endpoints old also tabulates is copied from old's tables
// verbatim; every other pair asks base. A nil old copies nothing.
func build(base torus.Topology, old *Table, allocNodes []int32) (*Table, PatchStats, error) {
	n := len(allocNodes)
	stats := PatchStats{Total: n*n - n}
	c := &Table{
		base:  base,
		idx:   make([]int32, base.Nodes()),
		nodes: append([]int32(nil), allocNodes...),
		n:     n,
		dist:  make([]int32, n*n),
		off:   make([]int32, n*n+1),
	}
	for i := range c.idx {
		c.idx[i] = -1
	}
	for i, m := range allocNodes {
		if m < 0 || int(m) >= base.Nodes() {
			return nil, stats, fmt.Errorf("routecache: node %d outside topology", m)
		}
		if c.idx[m] >= 0 {
			return nil, stats, fmt.Errorf("routecache: duplicate node %d", m)
		}
		c.idx[m] = int32(i)
	}
	var route []int32
	for i, a := range allocNodes {
		oa := int32(-1)
		if old != nil {
			oa = old.Local(a)
		}
		for j, b := range allocNodes {
			p := i*n + j
			if a == b {
				c.dist[p] = 0
				c.off[p+1] = c.off[p]
				continue
			}
			if oa >= 0 {
				if ob := old.Local(b); ob >= 0 {
					// Both endpoints survive: copy the tabulated pair.
					op := int(oa)*old.n + int(ob)
					c.dist[p] = old.dist[op]
					c.links = append(c.links, old.links[old.off[op]:old.off[op+1]]...)
					c.off[p+1] = c.off[p] + (old.off[op+1] - old.off[op])
					stats.Reused++
					continue
				}
			}
			c.dist[p] = int32(base.HopDist(int(a), int(b)))
			route = base.Route(int(a), int(b), route[:0])
			c.links = append(c.links, route...)
			c.off[p+1] = c.off[p] + int32(len(route))
		}
	}
	return c, stats, nil
}

// Len returns the number of allocated nodes.
func (c *Table) Len() int { return c.n }

// Node returns the node id at allocation index i.
func (c *Table) Node(i int32) int32 { return c.nodes[i] }

// Local returns the allocation index of node, or -1 when node is not
// allocated — including any id outside [0, Nodes()).
func (c *Table) Local(node int32) int32 {
	if uint32(node) >= uint32(len(c.idx)) {
		return -1
	}
	return c.idx[node]
}

// DistRow returns the hop distances from the node at allocation index
// i to every allocated node, indexed by allocation index:
// DistRow(i)[j] == HopDist(Node(i), Node(j)). The row is the table's
// own storage; callers must not modify it.
func (c *Table) DistRow(i int32) []int32 {
	return c.dist[int(i)*c.n : int(i+1)*c.n]
}

// RouteLinks returns the links of the static route from Node(i) to
// Node(j), the same ids Route appends, without copying. The slice is
// the table's own storage; callers must not modify it.
func (c *Table) RouteLinks(i, j int32) []int32 {
	p := int(i)*c.n + int(j)
	return c.links[c.off[p]:c.off[p+1]]
}

// Unwrap exposes the underlying topology to the capability helpers.
func (c *Table) Unwrap() torus.Topology { return c.base }

// Nodes delegates to the base topology.
func (c *Table) Nodes() int { return c.base.Nodes() }

// Diameter delegates to the base topology.
func (c *Table) Diameter() int { return c.base.Diameter() }

// NeighborNodes delegates to the base topology.
func (c *Table) NeighborNodes(v int, dst []int32) []int32 {
	return c.base.NeighborNodes(v, dst)
}

// Links delegates to the base topology.
func (c *Table) Links() int { return c.base.Links() }

// LinkBW delegates to the base topology.
func (c *Table) LinkBW(link int) float64 { return c.base.LinkBW(link) }

// HopDist serves allocated pairs from the table and delegates the
// rest (BFS frontiers may touch unallocated nodes).
func (c *Table) HopDist(a, b int) int {
	ia, ib := c.idx[a], c.idx[b]
	if ia < 0 || ib < 0 {
		return c.base.HopDist(a, b)
	}
	return int(c.dist[int(ia)*c.n+int(ib)])
}

// Route appends the tabulated route for allocated pairs and delegates
// the rest.
func (c *Table) Route(a, b int, dst []int32) []int32 {
	ia, ib := c.idx[a], c.idx[b]
	if ia < 0 || ib < 0 {
		return c.base.Route(a, b, dst)
	}
	return append(dst, c.RouteLinks(ia, ib)...)
}

var (
	_ torus.Topology  = (*Table)(nil)
	_ torus.Unwrapper = (*Table)(nil)
)
