// Package dragonfly models a canonical dragonfly network (the
// Cray Aries / Slingshot class of interconnects) behind the same
// torus.Topology interface the mapping algorithms consume — the third
// topology family exercising §III's claim that the WH-minimizing
// algorithms "can be applied to various topologies".
//
// The canonical maximally-sized dragonfly(p, a, h) has groups of
// a = 2h routers, p = h hosts per router, and g = a·h + 1 groups, so
// every pair of groups is joined by exactly one global link and every
// router carries h global links. Routers within a group form a full
// mesh of local links. Minimal routing is then unique: up from the
// host, at most one local hop to the router owning the right global
// link, the global hop, at most one local hop to the destination
// router, down to the host — at most five hops host to host.
//
// Vertex ids place the hosts first (0..H-1) so host ids double as
// placement targets; routers follow. The unique minimal route makes
// the adaptive (multipath) machinery degenerate to static routing,
// which the package implements and tests explicitly.
package dragonfly

import (
	"fmt"
	"strconv"

	"repro/internal/torus"
)

// Dragonfly is a canonical dragonfly network. It implements
// torus.Topology and torus.MultipathTopology (with unique minimal
// routes).
type Dragonfly struct {
	torus.LinkTable // over hosts + routers

	p, a, h int // hosts/router, routers/group, global links/router
	g       int // groups = a*h + 1
	hosts   int // g * a * p

	bwHost, bwLocal, bwGlobal float64 // construction parameters
}

// New builds a canonical dragonfly with h global links per router
// (so a = 2h routers per group, p = h hosts per router, and
// g = 2h² + 1 groups). Bandwidths are per directed link for the
// host-router, local (intra-group) and global (inter-group) levels.
func New(h int, bwHost, bwLocal, bwGlobal float64) (*Dragonfly, error) {
	if h < 1 {
		return nil, fmt.Errorf("dragonfly: need h >= 1 global links per router, got %d", h)
	}
	if bwHost <= 0 || bwLocal <= 0 || bwGlobal <= 0 {
		return nil, fmt.Errorf("dragonfly: bandwidths must be positive")
	}
	d := &Dragonfly{p: h, a: 2 * h, h: h, bwHost: bwHost, bwLocal: bwLocal, bwGlobal: bwGlobal}
	d.g = d.a*d.h + 1
	d.hosts = d.g * d.a * d.p
	d.LinkTable = torus.NewLinkTable(d.Nodes(), d.eachLink)
	return d, nil
}

// TopologyFingerprint canonically describes the dragonfly: global
// links per router and the three level bandwidths
// (torus.Fingerprinter).
func (d *Dragonfly) TopologyFingerprint() string {
	return "dragonfly:h=" + strconv.Itoa(d.h) +
		";bw=" + strconv.FormatFloat(d.bwHost, 'g', -1, 64) +
		"," + strconv.FormatFloat(d.bwLocal, 'g', -1, 64) +
		"," + strconv.FormatFloat(d.bwGlobal, 'g', -1, 64)
}

// Groups returns the number of groups g = 2h²+1.
func (d *Dragonfly) Groups() int { return d.g }

// RoutersPerGroup returns a = 2h.
func (d *Dragonfly) RoutersPerGroup() int { return d.a }

// Hosts returns the number of compute nodes; they are vertices
// 0..Hosts()-1.
func (d *Dragonfly) Hosts() int { return d.hosts }

// Nodes returns hosts plus routers.
func (d *Dragonfly) Nodes() int { return d.hosts + d.g*d.a }

// routerID returns the vertex id of router k of group gi.
func (d *Dragonfly) routerID(gi, k int) int { return d.hosts + gi*d.a + k }

// hostRouter returns the router vertex owning host v.
func (d *Dragonfly) hostRouter(v int) int { return d.hosts + v/d.p }

// routerGroup returns the group of a router vertex.
func (d *Dragonfly) routerGroup(r int) int { return (r - d.hosts) / d.a }

// globalEndpoints returns the routers joined by the unique global
// link between groups gi and gj (gi != gj): group gi exits toward gj
// through router (dd-1)/h where dd = (gj-gi) mod g, and symmetric on
// the far side.
func (d *Dragonfly) globalEndpoints(gi, gj int) (ri, rj int) {
	dd := ((gj-gi)%d.g + d.g) % d.g
	ri = d.routerID(gi, (dd-1)/d.h)
	rj = d.routerID(gj, (d.a*d.h-dd)/d.h)
	return ri, rj
}

// eachLink enumerates the physical links: every host's link to its
// router, then each group's local full mesh, then the one global link
// of every group pair.
func (d *Dragonfly) eachLink(link func(u, v int, bw float64)) {
	for v := 0; v < d.hosts; v++ {
		link(v, d.hostRouter(v), d.bwHost)
	}
	for gi := 0; gi < d.g; gi++ {
		for k := 0; k < d.a; k++ {
			for l := k + 1; l < d.a; l++ {
				link(d.routerID(gi, k), d.routerID(gi, l), d.bwLocal)
			}
		}
	}
	for gi := 0; gi < d.g; gi++ {
		for gj := gi + 1; gj < d.g; gj++ {
			ri, rj := d.globalEndpoints(gi, gj)
			link(ri, rj, d.bwGlobal)
		}
	}
}

// Diameter is 5: host, local hop, global hop, local hop, host.
func (d *Dragonfly) Diameter() int { return 5 }

// routerPath returns the router-level vertices of the unique minimal
// route between two distinct routers (inclusive of both endpoints).
func (d *Dragonfly) routerPath(rs, rt int) []int {
	gs, gt := d.routerGroup(rs), d.routerGroup(rt)
	if gs == gt {
		if rs == rt {
			return []int{rs}
		}
		return []int{rs, rt} // local full mesh: one hop
	}
	exit, entry := d.globalEndpoints(gs, gt)
	path := []int{rs}
	if exit != rs {
		path = append(path, exit)
	}
	path = append(path, entry)
	if entry != rt {
		path = append(path, rt)
	}
	return path
}

// HopDist returns the minimal-routing distance between two vertices
// in O(1): the length of the hierarchical local-global-local route
// that dragonfly minimal routing uses. For a few vertex pairs the raw
// graph distance is one hop shorter (a "shortcut" through two global
// links of an intermediate group), but the network never routes
// minimally that way, and the paper's dilation is defined on the
// routed path — so HopDist deliberately matches Route, with
// len(Route(a,b)) == HopDist(a,b) always.
func (d *Dragonfly) HopDist(a, b int) int {
	if a == b {
		return 0
	}
	ra, down := a, 0
	if a < d.hosts {
		ra = d.hostRouter(a)
		down++
	}
	rb := b
	if b < d.hosts {
		rb = d.hostRouter(b)
		down++
	}
	if ra == rb {
		return down // same router (down counts the host links)
	}
	return down + len(d.routerPath(ra, rb)) - 1
}

// Route appends the unique minimal route between two hosts: up to the
// source router, at most one local hop to the exit router, the global
// link, at most one local hop, down to the destination host. Both
// endpoints must be hosts.
func (d *Dragonfly) Route(a, b int, dst []int32) []int32 {
	if a == b {
		return dst
	}
	if a >= d.hosts || b >= d.hosts {
		panic("dragonfly: Route endpoints must be hosts")
	}
	ra, rb := d.hostRouter(a), d.hostRouter(b)
	dst = append(dst, d.LinkID(a, ra))
	if ra != rb {
		path := d.routerPath(ra, rb)
		for i := 1; i < len(path); i++ {
			dst = append(dst, d.LinkID(path[i-1], path[i]))
		}
	}
	return append(dst, d.LinkID(rb, b))
}

// NumMinimalRoutes returns 1 for distinct hosts: canonical dragonfly
// minimal routing is unique (one global link per group pair, full
// local mesh).
func (d *Dragonfly) NumMinimalRoutes(a, b int) int {
	if a == b {
		return 0
	}
	return 1
}

// ForEachMinimalRoute enumerates the single minimal route.
func (d *Dragonfly) ForEachMinimalRoute(a, b int, fn func(route []int32)) int {
	if a == b {
		return 0
	}
	fn(d.Route(a, b, nil))
	return 1
}

// RouteScale returns 1: all route counts are 1.
func (d *Dragonfly) RouteScale() int64 { return 1 }

var (
	_ torus.Topology          = (*Dragonfly)(nil)
	_ torus.MultipathTopology = (*Dragonfly)(nil)
)
