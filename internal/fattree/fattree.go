// Package fattree models a k-ary fat-tree network (the three-level
// Clos topology of HPC and datacenter clusters) behind the same
// torus.Topology interface the mapping algorithms consume. The paper
// presents its WH-minimizing algorithms as topology-agnostic ("the
// ones that minimize WH can be applied to various topologies", §III);
// this package exercises that claim on the most common non-torus
// interconnect.
//
// Structure of a k-ary fat tree (k even): k pods, each with k/2 edge
// switches and k/2 aggregation switches; each edge switch hosts k/2
// compute nodes; (k/2)² core switches connect the pods, core group j
// attaching to aggregation switch j of every pod. Hosts therefore
// number k³/4.
//
// Vertex ids place the hosts first (0..H-1), so host ids double as
// placement targets; switches follow. Static routing is
// destination-deterministic ("D-mod-k"): the aggregation and core
// switch of a route are chosen by the destination id, which is how
// deterministic ECMP tables spread load in practice. The package also
// implements torus.MultipathTopology by enumerating every minimal
// (agg, core) choice, so the adaptive congestion refinement runs on
// fat trees too.
package fattree

import (
	"fmt"
	"strconv"

	"repro/internal/torus"
)

// Level classifies a vertex of the fat tree.
type Level int

// Vertex levels.
const (
	Host Level = iota
	Edge
	Agg
	Core
)

// FatTree is a k-ary fat-tree topology. It implements
// torus.Topology and torus.MultipathTopology.
type FatTree struct {
	torus.LinkTable // over all vertices (hosts + switches)

	k     int // arity (even, >= 2)
	half  int // k/2
	hosts int // k^3/4

	bwHost float64 // host-edge link bandwidth
	taper  float64 // bandwidth divisor per level upward
}

// New builds a k-ary fat tree. k must be even and >= 2. bwHost is the
// host-to-edge link bandwidth (bytes/sec); taper >= 1 divides the
// bandwidth once per level upward (taper 1 = full bisection, taper 2
// = 2:1 oversubscription at each level).
func New(k int, bwHost, taper float64) (*FatTree, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("fattree: arity k must be even and >= 2, got %d", k)
	}
	if bwHost <= 0 || taper < 1 {
		return nil, fmt.Errorf("fattree: need bwHost > 0 and taper >= 1")
	}
	ft := &FatTree{k: k, half: k / 2, hosts: k * k * k / 4, bwHost: bwHost, taper: taper}
	ft.LinkTable = torus.NewLinkTable(ft.Nodes(), ft.eachLink)
	return ft, nil
}

// TopologyFingerprint canonically describes the fat tree: arity,
// host-link bandwidth and per-level taper (torus.Fingerprinter).
func (ft *FatTree) TopologyFingerprint() string {
	return "fattree:k=" + strconv.Itoa(ft.k) +
		";bw=" + strconv.FormatFloat(ft.bwHost, 'g', -1, 64) +
		";taper=" + strconv.FormatFloat(ft.taper, 'g', -1, 64)
}

// Hosts returns the number of compute nodes (k³/4); they are vertices
// 0..Hosts()-1.
func (ft *FatTree) Hosts() int { return ft.hosts }

// vertex id layout
func (ft *FatTree) hostID(pod, edge, port int) int { return pod*ft.half*ft.half + edge*ft.half + port }
func (ft *FatTree) edgeID(pod, e int) int          { return ft.hosts + pod*ft.half + e }
func (ft *FatTree) aggID(pod, j int) int           { return ft.hosts + ft.k*ft.half + pod*ft.half + j }
func (ft *FatTree) coreID(j, c int) int            { return ft.hosts + 2*ft.k*ft.half + j*ft.half + c }

// Classify returns the level and structural coordinates of a vertex:
// (Host, pod, edge*half+port), (Edge, pod, e), (Agg, pod, j) or
// (Core, j, c).
func (ft *FatTree) Classify(v int) (lv Level, a, b int) {
	if v < ft.hosts {
		pod := v / (ft.half * ft.half)
		return Host, pod, v % (ft.half * ft.half)
	}
	v -= ft.hosts
	if v < ft.k*ft.half {
		return Edge, v / ft.half, v % ft.half
	}
	v -= ft.k * ft.half
	if v < ft.k*ft.half {
		return Agg, v / ft.half, v % ft.half
	}
	v -= ft.k * ft.half
	return Core, v / ft.half, v % ft.half
}

// eachLink enumerates the physical links pod by pod with their
// bandwidths: bwHost on host–edge links, divided by the taper once
// per level upward (edge–agg, agg–core).
func (ft *FatTree) eachLink(link func(u, v int, bw float64)) {
	bwAgg := ft.bwHost / ft.taper
	bwCore := bwAgg / ft.taper
	for p := 0; p < ft.k; p++ {
		for e := 0; e < ft.half; e++ {
			for port := 0; port < ft.half; port++ {
				link(ft.hostID(p, e, port), ft.edgeID(p, e), ft.bwHost)
			}
			for j := 0; j < ft.half; j++ {
				link(ft.edgeID(p, e), ft.aggID(p, j), bwAgg)
			}
		}
		for j := 0; j < ft.half; j++ {
			for c := 0; c < ft.half; c++ {
				link(ft.aggID(p, j), ft.coreID(j, c), bwCore)
			}
		}
	}
}

// Nodes returns the total vertex count: hosts plus k² pod switches
// plus (k/2)² core switches.
func (ft *FatTree) Nodes() int { return ft.hosts + 2*ft.k*ft.half + ft.half*ft.half }

// Diameter of a fat tree is 6 (host-edge-agg-core-agg-edge-host).
func (ft *FatTree) Diameter() int { return 6 }

// HopDist returns the shortest-path length between any two vertices
// in O(1) by case analysis on their levels.
func (ft *FatTree) HopDist(a, b int) int {
	if a == b {
		return 0
	}
	la, pa, ia := ft.Classify(a)
	lb, pb, ib := ft.Classify(b)
	if la > lb {
		la, pa, ia, lb, pb, ib = lb, pb, ib, la, pa, ia
	}
	switch la {
	case Host:
		ea := ia / ft.half
		switch lb {
		case Host:
			eb := ib / ft.half
			switch {
			case pa == pb && ea == eb:
				return 2
			case pa == pb:
				return 4
			default:
				return 6
			}
		case Edge:
			switch {
			case pa == pb && ea == ib:
				return 1
			case pa == pb:
				return 3
			default:
				return 5
			}
		case Agg:
			if pa == pb {
				return 2
			}
			return 4
		default: // Core
			return 3
		}
	case Edge:
		switch lb {
		case Edge:
			if pa == pb {
				return 2
			}
			return 4
		case Agg:
			if pa == pb {
				return 1
			}
			return 3
		default: // Core
			return 2
		}
	case Agg:
		switch lb {
		case Agg:
			if pa == pb || ia == ib {
				return 2
			}
			return 4
		default: // Core: pb is the core group j
			if ia == pb {
				return 1
			}
			return 3
		}
	default: // Core-Core: pa, pb are the groups
		if pa == pb {
			return 2
		}
		return 4
	}
}

// routeVia appends the links of the route a→b through the given
// aggregation index j and core column c (ignored when unused).
func (ft *FatTree) routeVia(a, b, j, c int, dst []int32) []int32 {
	_, pa, ia := ft.Classify(a)
	_, pb, ib := ft.Classify(b)
	ea, eb := ia/ft.half, ib/ft.half
	edgeA, edgeB := ft.edgeID(pa, ea), ft.edgeID(pb, eb)
	dst = append(dst, ft.LinkID(a, edgeA))
	if pa == pb && ea == eb {
		return append(dst, ft.LinkID(edgeA, b))
	}
	aggA := ft.aggID(pa, j)
	dst = append(dst, ft.LinkID(edgeA, aggA))
	if pa == pb {
		dst = append(dst, ft.LinkID(aggA, edgeB))
		return append(dst, ft.LinkID(edgeB, b))
	}
	core := ft.coreID(j, c)
	aggB := ft.aggID(pb, j)
	dst = append(dst,
		ft.LinkID(aggA, core),
		ft.LinkID(core, aggB),
		ft.LinkID(aggB, edgeB),
		ft.LinkID(edgeB, b))
	return dst
}

// Route appends the static route between two hosts: the aggregation
// and core hops are picked deterministically from the destination id
// (D-mod-k routing), which is how static ECMP routing tables are
// populated on fat trees. Both endpoints must be hosts.
func (ft *FatTree) Route(a, b int, dst []int32) []int32 {
	if a == b {
		return dst
	}
	if a >= ft.hosts || b >= ft.hosts {
		panic("fattree: Route endpoints must be hosts")
	}
	j := b % ft.half
	c := (b / ft.half) % ft.half
	return ft.routeVia(a, b, j, c, dst)
}

// NumMinimalRoutes returns the ECMP width between two hosts: 1 under
// the same edge switch, k/2 within a pod (choice of aggregation
// switch), (k/2)² across pods (choice of core switch).
func (ft *FatTree) NumMinimalRoutes(a, b int) int {
	if a == b {
		return 0
	}
	_, pa, ia := ft.Classify(a)
	_, pb, ib := ft.Classify(b)
	switch {
	case pa == pb && ia/ft.half == ib/ft.half:
		return 1
	case pa == pb:
		return ft.half
	default:
		return ft.half * ft.half
	}
}

// ForEachMinimalRoute enumerates the minimal routes between two
// hosts: every aggregation choice within a pod, every (agg, core)
// choice across pods. The route buffer is reused between calls.
func (ft *FatTree) ForEachMinimalRoute(a, b int, fn func(route []int32)) int {
	if a == b {
		return 0
	}
	_, pa, ia := ft.Classify(a)
	_, pb, ib := ft.Classify(b)
	route := make([]int32, 0, 6)
	switch {
	case pa == pb && ia/ft.half == ib/ft.half:
		fn(ft.routeVia(a, b, 0, 0, route[:0]))
		return 1
	case pa == pb:
		for j := 0; j < ft.half; j++ {
			fn(ft.routeVia(a, b, j, 0, route[:0]))
		}
		return ft.half
	default:
		for j := 0; j < ft.half; j++ {
			for c := 0; c < ft.half; c++ {
				fn(ft.routeVia(a, b, j, c, route[:0]))
			}
		}
		return ft.half * ft.half
	}
}

// RouteScale returns (k/2)², which every possible route count
// (1, k/2, (k/2)²) divides.
func (ft *FatTree) RouteScale() int64 { return int64(ft.half) * int64(ft.half) }

var (
	_ torus.Topology          = (*FatTree)(nil)
	_ torus.MultipathTopology = (*FatTree)(nil)
)
