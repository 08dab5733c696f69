package torus

// Capability discovery for wrapped topologies. The engine layer wraps
// a Topology in caching views; algorithms that need more than the
// base interface (torus coordinates for geometric splitting, minimal-
// route enumeration for adaptive congestion, a construction
// fingerprint for cache keys) discover those capabilities through As,
// which sees through any chain of Unwrapper layers.

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

// As returns the first layer of t, looking through view layers, that
// implements T (CoordTopology, MultipathTopology, Fingerprinter, ...);
// ok is false when no layer does.
func As[T any](t Topology) (T, bool) {
	for {
		if v, ok := t.(T); ok {
			return v, true
		}
		u, ok := t.(Unwrapper)
		if !ok {
			var zero T
			return zero, false
		}
		t = u.Unwrap()
	}
}
