// Package routecache precomputes the routing and distance state a
// mapping engine reuses across requests: for a fixed (topology,
// allocation) pair it tabulates the hop distance and the static route
// of every allocated node pair once, and serves them from dense
// read-only tables afterwards. The tables are built from the
// underlying topology's own HopDist/Route answers, so a cached view
// is observationally identical to the raw topology — mappings and
// metrics computed through it are byte-for-byte the same — while
// queries between allocated nodes (the hot path of every mapping
// algorithm and of the metric evaluation) become O(1) table lookups
// instead of per-call route recomputation.
//
// The view is immutable after construction and therefore safe for
// any number of concurrent readers, which is what makes one engine
// serve parallel mapping requests race-free.
package routecache

import (
	"fmt"

	"repro/internal/torus"
)

// cached is the core view: Topology with tabulated HopDist/Route for
// allocated node pairs, delegation for everything else.
type cached struct {
	base torus.Topology
	idx  []int32 // node id -> dense allocated index, -1 when not allocated
	n    int     // number of allocated nodes

	dist  []int32 // n*n hop distances
	off   []int32 // n*n+1 CSR offsets into links
	links []int32 // concatenated route link ids
}

// New returns a Topology view of base with the pairwise routing state
// of allocNodes precomputed. The view preserves every capability of
// the base topology that the mapping stack uses: it implements
// torus.MultipathTopology when base does (route enumeration is
// delegated), and torus.CoordsOf/MultipathOf see through it via
// Unwrap. allocNodes must be valid node ids of base.
func New(base torus.Topology, allocNodes []int32) (torus.Topology, error) {
	view, _, err := build(base, nil, allocNodes)
	return view, err
}

// build tabulates every ordered pair of allocNodes over base. A pair
// whose two endpoints old also tabulates is copied from old's tables
// verbatim; every other pair asks base. A nil old copies nothing.
func build(base torus.Topology, old *cached, allocNodes []int32) (torus.Topology, PatchStats, error) {
	n := len(allocNodes)
	stats := PatchStats{Total: n*n - n}
	c := &cached{
		base: base,
		idx:  make([]int32, base.Nodes()),
		n:    n,
		dist: make([]int32, n*n),
		off:  make([]int32, n*n+1),
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
			oa = old.idx[a]
		}
		for j, b := range allocNodes {
			p := i*n + j
			if a == b {
				c.dist[p] = 0
				c.off[p+1] = c.off[p]
				continue
			}
			if oa >= 0 {
				if ob := old.idx[b]; ob >= 0 {
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
	if mp, ok := base.(torus.MultipathTopology); ok {
		return &cachedMultipath{cached: c, mp: mp}, stats, nil
	}
	return c, stats, nil
}

// Unwrap exposes the underlying topology to the capability helpers.
func (c *cached) Unwrap() torus.Topology { return c.base }

// Nodes delegates to the base topology.
func (c *cached) Nodes() int { return c.base.Nodes() }

// Diameter delegates to the base topology.
func (c *cached) Diameter() int { return c.base.Diameter() }

// NeighborNodes delegates to the base topology.
func (c *cached) NeighborNodes(v int, dst []int32) []int32 {
	return c.base.NeighborNodes(v, dst)
}

// Links delegates to the base topology.
func (c *cached) Links() int { return c.base.Links() }

// LinkBW delegates to the base topology.
func (c *cached) LinkBW(link int) float64 { return c.base.LinkBW(link) }

// HopDist serves allocated pairs from the table and delegates the
// rest (BFS frontiers may touch unallocated nodes).
func (c *cached) HopDist(a, b int) int {
	ia, ib := c.idx[a], c.idx[b]
	if ia < 0 || ib < 0 {
		return c.base.HopDist(a, b)
	}
	return int(c.dist[int(ia)*c.n+int(ib)])
}

// Route appends the tabulated route for allocated pairs and delegates
// the rest.
func (c *cached) Route(a, b int, dst []int32) []int32 {
	ia, ib := c.idx[a], c.idx[b]
	if ia < 0 || ib < 0 {
		return c.base.Route(a, b, dst)
	}
	p := int(ia)*c.n + int(ib)
	return append(dst, c.links[c.off[p]:c.off[p+1]]...)
}

// cachedMultipath adds minimal-route enumeration by delegation, so
// the adaptive congestion refinement and metrics run through the view
// unchanged.
type cachedMultipath struct {
	*cached
	mp torus.MultipathTopology
}

// ForEachMinimalRoute delegates to the base topology.
func (c *cachedMultipath) ForEachMinimalRoute(a, b int, fn func(route []int32)) int {
	return c.mp.ForEachMinimalRoute(a, b, fn)
}

// NumMinimalRoutes delegates to the base topology.
func (c *cachedMultipath) NumMinimalRoutes(a, b int) int { return c.mp.NumMinimalRoutes(a, b) }

// RouteScale delegates to the base topology.
func (c *cachedMultipath) RouteScale() int64 { return c.mp.RouteScale() }

var (
	_ torus.Topology          = (*cached)(nil)
	_ torus.Unwrapper         = (*cached)(nil)
	_ torus.MultipathTopology = (*cachedMultipath)(nil)
)
