package torus

// Capability discovery for wrapped topologies. The engine layer wraps
// a Topology in caching views; algorithms that need more than the
// base interface (torus coordinates for geometric splitting, minimal-
// route enumeration for adaptive congestion) discover those
// capabilities through the helpers below, which see through any chain
// of Unwrapper layers.

// CoordTopology is a Topology whose nodes live on an integer
// coordinate grid (tori and meshes). The recursive-bipartitioning
// baselines use it to split node sets geometrically.
type CoordTopology interface {
	Topology
	// NDims returns the number of grid dimensions.
	NDims() int
	// Coord writes the coordinates of node into dst and returns it.
	Coord(node int, dst []int) []int
}

// Unwrapper is implemented by topology views (caches, decorators)
// that delegate to an underlying Topology.
type Unwrapper interface {
	Unwrap() Topology
}

// CoordsOf returns the coordinate-grid view of t, looking through
// view layers; ok is false when the topology has no grid geometry
// (fat trees, dragonflies, custom topologies).
func CoordsOf(t Topology) (CoordTopology, bool) {
	for {
		if ct, ok := t.(CoordTopology); ok {
			return ct, true
		}
		u, ok := t.(Unwrapper)
		if !ok {
			return nil, false
		}
		t = u.Unwrap()
	}
}

// MultipathOf returns the multipath view of t, looking through view
// layers; ok is false when the topology cannot enumerate minimal
// routes.
func MultipathOf(t Topology) (MultipathTopology, bool) {
	for {
		if mp, ok := t.(MultipathTopology); ok {
			return mp, true
		}
		u, ok := t.(Unwrapper)
		if !ok {
			return nil, false
		}
		t = u.Unwrap()
	}
}
