// Package geom implements the geometric mapping pipeline: a
// multi-jagged recursive coordinate bisection that orders point sets
// (task-group centroids) into spatially coherent rank ranges, and
// space-filling-curve orderings of both points and allocated torus
// nodes. Together they power the GEOM and SFCM mappers — the
// coordinate-based placement family the paper compares its
// topology-aware mappers against (§II: geometric partitioners and
// SFC mappings are the standard when task coordinates exist).
//
// Both mappers place one supertask per allocated node, so the
// problem is a permutation: derive a spatial order of the supertask
// centroids, derive a locality-preserving order of the allocated
// nodes, and marry rank i of one to rank i of the other.
package geom

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/arena"
	"repro/internal/parallel"
	"repro/internal/sfc"
	"repro/internal/torus"
	"repro/internal/trace"
)

// Options tunes the multi-jagged bisection; the zero value is usable
// (serial, fresh allocations, never cancelled).
type Options struct {
	// Seed drives the randomized cut-dimension tie-breaks; runs are
	// deterministic for a fixed seed at any worker count.
	Seed int64
	// Par, when non-nil, runs independent bisection subtrees on the
	// group's bounded worker pool and polls it for cooperative
	// cancellation. Every subtree draws from its own seeded RNG, so
	// the cut tree — and therefore the part vector — is identical for
	// every worker count, including nil (serial).
	Par *parallel.Group
	// Arena, when non-nil, supplies the recycled index scratch of the
	// bisection. A nil Arena allocates fresh buffers.
	Arena *arena.Arena
	// Trace, when non-nil, receives per-stage counters (cuts made,
	// maximum recursion depth) on its open span. Counters never
	// influence a bisection decision.
	Trace *trace.Trace
}

// MultiJagged splits n = len(coords)/dim points into k parts of equal
// target weight by recursive weight-balanced bisection along the
// longest bounding-box extent (the multi-jagged scheme of Deveci et
// al., TPDS 2016, restricted to one cut per level). w are the point
// weights (nil = unit). The returned part vector assigns contiguous
// part id ranges to spatially contiguous regions, so nearby part ids
// correspond to nearby points — the locality property the SFC node
// order on the other side of the mapping preserves.
func MultiJagged(coords []float64, dim int, w []int64, k int, opt Options) ([]int32, error) {
	if dim != 2 && dim != 3 {
		return nil, fmt.Errorf("geom: dimensionality %d not supported (want 2 or 3)", dim)
	}
	if len(coords)%dim != 0 {
		return nil, fmt.Errorf("geom: %d coordinates not divisible by dim %d", len(coords), dim)
	}
	n := len(coords) / dim
	if w != nil && len(w) != n {
		return nil, fmt.Errorf("geom: %d weights for %d points", len(w), n)
	}
	if k <= 0 {
		return nil, fmt.Errorf("geom: %d parts", k)
	}
	var total int64
	if w == nil {
		total = int64(n)
	} else {
		for _, wi := range w {
			if wi < 0 {
				return nil, fmt.Errorf("geom: negative point weight %d", wi)
			}
			total += wi
		}
	}
	targets := make([]int64, k)
	for i := range targets {
		targets[i] = total / int64(k)
		if int64(i) < total%int64(k) {
			targets[i]++
		}
	}
	part := make([]int32, n)
	ar := opt.Arena
	ids := ar.Int32s(n)
	for i := range ids {
		ids[i] = int32(i)
	}
	mjBisect(coords, dim, w, ids, targets, 0, opt, 1, part)
	ar.PutInt32s(ids)
	if err := opt.Par.Err(); err != nil {
		return nil, err
	}
	return part, nil
}

func pointWeight(w []int64, id int32) int64 {
	if w == nil {
		return 1
	}
	return w[id]
}

// mjBisect assigns part ids [offset, offset+len(targets)) to the
// points listed in ids. The two halves recurse as independent
// subtasks: they write disjoint entries of out and own disjoint
// subslices of ids, so Options.Par may run them on any worker. path
// identifies the subtree for its seeded RNG.
func mjBisect(coords []float64, dim int, w []int64, ids []int32, targets []int64, offset int, opt Options, path uint64, out []int32) {
	if opt.Par.Cancelled() {
		return // caller surfaces the context error
	}
	if len(ids) == 0 {
		return
	}
	if len(targets) == 1 || len(ids) == 1 {
		// A single point under multiple parts takes the first id; the
		// sibling parts stay empty (only reachable when k > n).
		for _, v := range ids {
			out[v] = int32(offset)
		}
		return
	}
	kl := len(targets) / 2
	var twL int64
	for _, t := range targets[:kl] {
		twL += t
	}

	// The cut runs along the longest bounding-box extent; exact ties
	// (squares, cubes, coincident point clouds) are broken by the
	// subtree's seeded RNG so the choice is deterministic per seed but
	// not biased toward low dimensions.
	var mins, maxs [3]float64
	for d := 0; d < dim; d++ {
		mins[d], maxs[d] = math.Inf(1), math.Inf(-1)
	}
	for _, v := range ids {
		for d := 0; d < dim; d++ {
			c := coords[int(v)*dim+d]
			if c < mins[d] {
				mins[d] = c
			}
			if c > maxs[d] {
				maxs[d] = c
			}
		}
	}
	cutDim, best := 0, maxs[0]-mins[0]
	var ties [3]int
	ties[0] = 0
	nTies := 1
	for d := 1; d < dim; d++ {
		switch ext := maxs[d] - mins[d]; {
		case ext > best:
			cutDim, best = d, ext
			ties[0], nTies = d, 1
		case ext == best:
			ties[nTies] = d
			nTies++
		}
	}
	if nTies > 1 {
		rng := parallel.SubtreeRNG(opt.Seed, path)
		cutDim = ties[rng.Intn(nTies)]
	}

	sort.Slice(ids, func(a, b int) bool {
		ca, cb := coords[int(ids[a])*dim+cutDim], coords[int(ids[b])*dim+cutDim]
		if ca != cb {
			return ca < cb
		}
		return ids[a] < ids[b]
	})

	// Pick the split point closest to the left target weight. When the
	// points outnumber the parts, both sides must keep at least as many
	// points as parts so every leaf part ends up non-empty.
	cLo, cHi := 1, len(ids)-1
	if len(ids) >= len(targets) {
		if kl > cLo {
			cLo = kl
		}
		if m := len(ids) - (len(targets) - kl); m < cHi {
			cHi = m
		}
	}
	cut, bestDiff := cLo, int64(math.MaxInt64)
	var acc int64
	for i := 0; i < cHi; i++ {
		acc += pointWeight(w, ids[i])
		if c := i + 1; c >= cLo {
			diff := acc - twL
			if diff < 0 {
				diff = -diff
			}
			if diff < bestDiff {
				cut, bestDiff = c, diff
			}
		}
	}

	// path doubles per level, so its bit length is the subtree's depth
	// in the cut tree (root 1 = depth 0).
	opt.Trace.Add("mj_cuts", 1)
	opt.Trace.Max("mj_depth", int64(bits.Len64(path)-1))

	left, right := ids[:cut], ids[cut:]
	opt.Par.Fork(
		func() { mjBisect(coords, dim, w, left, targets[:kl], offset, opt, 2*path, out) },
		func() { mjBisect(coords, dim, w, right, targets[kl:], offset+kl, opt, 2*path+1, out) },
	)
}

// hilbertBits is the per-dimension quantization resolution of
// HilbertOrder: centroids snap to a 2^hilbertBits-sided grid over
// their bounding box before keying.
const hilbertBits = 10

// HilbertOrder returns the indices of the n = len(coords)/dim points
// sorted along a Hilbert curve over their bounding box (points
// quantized to a 2^hilbertBits grid; key ties broken by point index).
func HilbertOrder(coords []float64, dim int) []int32 {
	n := len(coords) / dim
	var mins, maxs [3]float64
	for d := 0; d < dim; d++ {
		mins[d], maxs[d] = math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			c := coords[i*dim+d]
			if c < mins[d] {
				mins[d] = c
			}
			if c > maxs[d] {
				maxs[d] = c
			}
		}
	}
	side := float64(int(1)<<hilbertBits - 1)
	keys := make([]uint64, n)
	for i := 0; i < n; i++ {
		var q [3]uint32
		for d := 0; d < dim; d++ {
			if ext := maxs[d] - mins[d]; ext > 0 {
				q[d] = uint32((coords[i*dim+d]-mins[d])/ext*side + 0.5)
			}
		}
		keys[i] = sfc.HilbertXYZ2D(hilbertBits, q[0], q[1], q[2])
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if keys[ia] != keys[ib] {
			return keys[ia] < keys[ib]
		}
		return ia < ib
	})
	return order
}

// NodeOrder returns the allocated nodes reordered along a Hilbert
// curve over the topology's coordinate grid — the locality-preserving
// linearization consecutive spatial ranks map onto. Topologies without
// grid geometry (fat trees, dragonflies), grids beyond three
// dimensions, and degenerate coordinate collisions all fall back to
// the scheduler's allocation order unchanged.
func NodeOrder(topo torus.Topology, nodes []int32) []int32 {
	out := append([]int32(nil), nodes...)
	ct, ok := torus.CoordsOf(topo)
	if !ok {
		return out
	}
	nd := ct.NDims()
	if nd < 1 || nd > 3 {
		return out
	}
	var buf []int
	pts := make([][3]int, len(nodes))
	var mins, maxs [3]int
	for i, node := range nodes {
		buf = ct.Coord(int(node), buf)
		for d := 0; d < 3; d++ {
			c := 0
			if d < len(buf) {
				c = buf[d]
			}
			pts[i][d] = c
			if i == 0 || c < mins[d] {
				mins[d] = c
			}
			if i == 0 || c > maxs[d] {
				maxs[d] = c
			}
		}
	}
	dx, dy, dz := maxs[0]-mins[0]+1, maxs[1]-mins[1]+1, maxs[2]-mins[2]+1
	slot := make([]int32, dx*dy*dz)
	for i := range slot {
		slot[i] = -1
	}
	for i, p := range pts {
		lin := (p[0] - mins[0]) + dx*((p[1]-mins[1])+dy*(p[2]-mins[2]))
		if slot[lin] != -1 {
			return out // colliding coordinates: keep allocation order
		}
		slot[lin] = nodes[i]
	}
	ordered := out[:0]
	for _, lin := range sfc.BoxOrder(sfc.OrderHilbert, dx, dy, dz) {
		if n := slot[lin]; n != -1 {
			ordered = append(ordered, n)
		}
	}
	return ordered
}

// MapGEOM is the GEOM mapper: multi-jagged bisection of the supertask
// centroids into one part per node (a spatial ordering), married to
// the Hilbert node order. coords are the group-major centroid
// coordinates, w the supertask weights (nil = unit).
func MapGEOM(coords []float64, dim int, w []int64, topo torus.Topology, nodes []int32, opt Options) ([]int32, error) {
	if dim == 0 || len(coords) != len(nodes)*dim {
		return nil, fmt.Errorf("geom: %d centroid coordinates (dim %d) for %d nodes", len(coords), dim, len(nodes))
	}
	part, err := MultiJagged(coords, dim, w, len(nodes), opt)
	if err != nil {
		return nil, err
	}
	order := NodeOrder(topo, nodes)
	nodeOf := make([]int32, len(part))
	for i, p := range part {
		nodeOf[i] = order[p]
	}
	return nodeOf, nil
}

// MapSFCM is the SFCM mapper: supertask centroids in Hilbert curve
// order onto allocated nodes in Hilbert curve order — the pure
// SFC-to-SFC placement geometric frameworks default to.
func MapSFCM(coords []float64, dim int, topo torus.Topology, nodes []int32) ([]int32, error) {
	if dim == 0 || len(coords) != len(nodes)*dim {
		return nil, fmt.Errorf("geom: %d centroid coordinates (dim %d) for %d nodes", len(coords), dim, len(nodes))
	}
	rank := HilbertOrder(coords, dim)
	order := NodeOrder(topo, nodes)
	nodeOf := make([]int32, len(rank))
	for r, i := range rank {
		nodeOf[i] = order[r]
	}
	return nodeOf, nil
}
