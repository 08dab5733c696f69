// Package torus models the interconnection network the paper targets:
// NERSC Hopper's Cray XE6 Gemini 3D torus, generalized to any number
// of dimensions (the intro motivates 5D/6D tori as well). The model
// provides exactly what the paper's metrics and algorithms consume:
// O(1) shortest-path hop counts, static dimension-ordered shortest
// routes (Gemini routes statically along shortest paths, §II-B), per-
// dimension heterogeneous link bandwidths, and the topology graph for
// BFS traversals.
package torus

// Topology is the abstract network seen by the mapping algorithms and
// metrics. Node and link ids are dense integers.
type Topology interface {
	// Nodes returns the number of network nodes.
	Nodes() int
	// HopDist returns the hop count of the static route from a to b,
	// len(Route(a, b)) — the dilation the paper's metrics charge. On
	// tori, meshes and fat trees that is the shortest-path length; a
	// dragonfly's minimal route is longer than the graph distance on
	// some pairs, and HopDist counts the route.
	HopDist(a, b int) int
	// Diameter returns the maximum HopDist over all node pairs.
	Diameter() int
	// NeighborNodes appends the nodes adjacent to v to dst and
	// returns it (topology-graph adjacency for BFS).
	NeighborNodes(v int, dst []int32) []int32
	// Links returns the number of directed links.
	Links() int
	// Route appends the directed link ids of the static shortest
	// route from a to b to dst and returns it. Route(a,a) is empty.
	Route(a, b int, dst []int32) []int32
	// LinkBW returns the bandwidth of a directed link in bytes/sec.
	LinkBW(link int) float64
}

// Hopper-like per-dimension Gemini link bandwidths in bytes/sec. The
// paper reports link bandwidths varying from 4.68 to 9.38 GB/s on
// Hopper; the Y dimension of Gemini has half the X/Z bandwidth.
const (
	GB            = 1e9
	HopperBWHigh  = 9.38 * GB
	HopperBWLow   = 4.68 * GB
	HopperLatNear = 1.27e-6 // seconds, nearest node pair (§II-B)
	HopperLatFar  = 3.88e-6 // seconds, farthest node pair
)

// Torus is an N-dimensional torus with wraparound links and static
// dimension-ordered routing. It implements Topology. With wraparound
// disabled (NewMesh) it models a mesh network instead — the paper's
// WH-minimizing algorithms "can be applied to various topologies"
// (§III) and this is the most common alternative.
type Torus struct {
	dims   []int
	bw     []float64 // per-dimension bandwidth
	stride []int     // stride[d] = product of dims[0..d-1]
	n      int
	diam   int
	wrap   bool
}

// New returns a torus with the given dimension sizes and per-dimension
// link bandwidths (len(bw) must equal len(dims)). Every dimension must
// be >= 1; dimensions of size 1 or 2 have no distinct wraparound.
func New(dims []int, bw []float64) *Torus {
	return build(dims, bw, true)
}

// NewMesh returns the mesh (no wraparound) counterpart of New.
func NewMesh(dims []int, bw []float64) *Torus {
	return build(dims, bw, false)
}

func build(dims []int, bw []float64, wrap bool) *Torus {
	if len(dims) == 0 || len(bw) != len(dims) {
		panic("torus: dims/bw length mismatch")
	}
	t := &Torus{
		dims:   append([]int(nil), dims...),
		bw:     append([]float64(nil), bw...),
		stride: make([]int, len(dims)),
		n:      1,
		wrap:   wrap,
	}
	for d, sz := range dims {
		if sz < 1 {
			panic("torus: dimension size < 1")
		}
		t.stride[d] = t.n
		t.n *= sz
		if wrap {
			t.diam += sz / 2
		} else {
			t.diam += sz - 1
		}
	}
	return t
}

// NewHopper3D returns a 3D torus with Hopper-like heterogeneous
// bandwidths (X and Z fast, Y slow).
func NewHopper3D(x, y, z int) *Torus {
	return New([]int{x, y, z}, []float64{HopperBWHigh, HopperBWLow, HopperBWHigh})
}

// Dims returns the dimension sizes; the caller must not mutate them.
func (t *Torus) Dims() []int { return t.dims }

// NDims returns the number of torus dimensions.
func (t *Torus) NDims() int { return len(t.dims) }

// Nodes returns the number of nodes.
func (t *Torus) Nodes() int { return t.n }

// Diameter returns the network diameter (sum of per-dimension radii).
func (t *Torus) Diameter() int { return t.diam }

// Coord writes the coordinates of node into dst and returns it.
func (t *Torus) Coord(node int, dst []int) []int {
	dst = dst[:0]
	for d := range t.dims {
		dst = append(dst, node/t.stride[d]%t.dims[d])
	}
	return dst
}

// NodeAt returns the node id at the given coordinates.
func (t *Torus) NodeAt(coord []int) int {
	id := 0
	for d, c := range coord {
		id += c * t.stride[d]
	}
	return id
}

// coordOf returns a single coordinate of node along dim.
func (t *Torus) coordOf(node, dim int) int { return node / t.stride[dim] % t.dims[dim] }

// HopDist returns the shortest-path length in O(ndims).
func (t *Torus) HopDist(a, b int) int {
	dist := 0
	for d, sz := range t.dims {
		delta := t.coordOf(b, d) - t.coordOf(a, d)
		if !t.wrap {
			if delta < 0 {
				delta = -delta
			}
			dist += delta
			continue
		}
		if delta < 0 {
			delta += sz
		}
		if rev := sz - delta; rev < delta {
			delta = rev
		}
		dist += delta
	}
	return dist
}

// Links returns the number of directed links: 2 per dimension per
// node. Dimensions of size 1 contribute degenerate self-links that no
// route ever uses.
func (t *Torus) Links() int { return t.n * 2 * len(t.dims) }

// linkID encodes the directed link leaving node along dim in
// direction dir (0 = +, 1 = -).
func (t *Torus) linkID(node, dim, dir int) int {
	return node*2*len(t.dims) + 2*dim + dir
}

// LinkInfo decodes a link id into its source node, dimension,
// direction (0 = +, 1 = -) and destination node.
func (t *Torus) LinkInfo(link int) (from, dim, dir, to int) {
	k := 2 * len(t.dims)
	from = link / k
	rem := link % k
	dim, dir = rem/2, rem%2
	to = t.neighbor(from, dim, dir)
	return from, dim, dir, to
}

// LinkBW returns the bandwidth of link (a function of its dimension).
func (t *Torus) LinkBW(link int) float64 {
	return t.bw[link%(2*len(t.dims))/2]
}

// neighbor returns node's neighbour along dim in direction dir, or -1
// when a mesh boundary blocks the step.
func (t *Torus) neighbor(node, dim, dir int) int {
	sz := t.dims[dim]
	c := t.coordOf(node, dim)
	var nc int
	if dir == 0 {
		nc = c + 1
		if nc == sz {
			if !t.wrap {
				return -1
			}
			nc = 0
		}
	} else {
		nc = c - 1
		if nc < 0 {
			if !t.wrap {
				return -1
			}
			nc = sz - 1
		}
	}
	return node + (nc-c)*t.stride[dim]
}

// NeighborNodes appends the distinct neighbours of v to dst.
func (t *Torus) NeighborNodes(v int, dst []int32) []int32 {
	for d, sz := range t.dims {
		if sz == 1 {
			continue
		}
		if p := t.neighbor(v, d, 0); p >= 0 {
			dst = append(dst, int32(p))
		}
		if sz > 2 || !t.wrap {
			if p := t.neighbor(v, d, 1); p >= 0 {
				dst = append(dst, int32(p))
			}
		}
	}
	return dst
}

// Route appends the directed links of the static dimension-ordered
// shortest route from a to b (X first, then Y, then Z, ...). For each
// dimension the shorter wrap direction is taken; exact ties go to the
// positive direction, mirroring a fixed deterministic routing table.
func (t *Torus) Route(a, b int, dst []int32) []int32 {
	cur := a
	for d := range t.dims {
		cur, dst = t.routeDim(cur, b, d, dst)
	}
	return dst
}

var _ Topology = (*Torus)(nil)
