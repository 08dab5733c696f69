package routecache

import "repro/internal/torus"

// PatchStats reports how much of a previous view's tabulated state a
// Patch call salvaged: Reused counts the ordered off-diagonal node
// pairs copied verbatim from the previous tables, Total the pairs the
// new view tabulates. On a pure node-removal or capacity-only delta
// every surviving pair is reused; only pairs touching an added node
// pay a route recomputation.
type PatchStats struct {
	Reused, Total int
}

// Patch builds the route-cache view for allocNodes by patching a
// previous view in place of a cold build: every (a,b) pair whose two
// endpoints were both allocated in prev keeps its tabulated hop
// distance and route verbatim — only pairs touching a node prev did
// not cover are recomputed from the base topology. The result is
// observationally identical to New(base, allocNodes) (both tables are
// derived from the same base Route/HopDist answers), so a patched
// engine and a cold engine produce byte-identical mappings; Patch
// only changes how much construction work the delta costs.
//
// prev must be a view returned by New or Patch; any other Topology
// falls back to a cold New build with zero reuse (stats report it).
func Patch(prev torus.Topology, allocNodes []int32) (torus.Topology, PatchStats, error) {
	switch v := prev.(type) {
	case *cachedMultipath:
		return build(v.base, v.cached, allocNodes)
	case *cached:
		return build(v.base, v, allocNodes)
	}
	return build(prev, nil, allocNodes)
}
