package topomap

import (
	"hash/fnv"
	"math"
	"strconv"

	"repro/internal/torus"
)

// TopologyFingerprint returns a canonical fingerprint of the
// topology: two topologies with the same fingerprint are structurally
// identical (same nodes, links, routes, bandwidths), so engine routing
// state built against one serves the other. The built-in families
// describe their construction parameters ("torus:8x8x8;bw=...",
// "fattree:k=8;...", "dragonfly:h=3;...", via torus.Fingerprinter,
// seen through view layers); other topologies fall back to an FNV-1a
// structural hash over the adjacency and link bandwidths.
func TopologyFingerprint(topo Topology) string {
	if f, ok := torus.As[torus.Fingerprinter](topo); ok {
		return f.TopologyFingerprint()
	}
	return structuralFingerprint(topo)
}

// AllocationFingerprint returns a canonical fingerprint of the
// allocation: the node set in allocation order plus the per-node
// capacities. Together with TopologyFingerprint it keys the engine
// cache — a repeated job on the same partition hits the cache and
// skips the route-state rebuild.
func AllocationFingerprint(a *Allocation) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(len(a.Nodes)))
	for _, m := range a.Nodes {
		put(uint64(uint32(m)))
	}
	for _, p := range a.ProcsPerNode {
		put(uint64(p))
	}
	// Per-node speeds fold in only when heterogeneous: a unit speed
	// vector is semantically the nil default, and keeping it out of the
	// hash keeps every pre-heterogeneity fingerprint stable.
	if !a.UnitSpeeds() {
		put(uint64(len(a.Speeds)))
		for _, s := range a.Speeds {
			put(math.Float64bits(s))
		}
	}
	return "alloc:" + strconv.Itoa(len(a.Nodes)) + ":" + strconv.FormatUint(h.Sum64(), 16)
}

// EngineFingerprint returns the canonical cache key of the
// (topology, allocation) pair an Engine is built for.
func EngineFingerprint(topo Topology, a *Allocation) string {
	return TopologyFingerprint(topo) + "|" + AllocationFingerprint(a)
}

// structuralFingerprint hashes what the routing state depends on:
// node count, adjacency, and per-link bandwidth. O(V+E), computed
// only for topologies outside the built-in families.
func structuralFingerprint(topo Topology) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	n := topo.Nodes()
	put(uint64(n))
	put(uint64(topo.Links()))
	put(uint64(topo.Diameter()))
	var nbr []int32
	for v := 0; v < n; v++ {
		nbr = topo.NeighborNodes(v, nbr[:0])
		put(uint64(len(nbr)))
		for _, u := range nbr {
			put(uint64(uint32(u)))
		}
	}
	for l := 0; l < topo.Links(); l++ {
		put(math.Float64bits(topo.LinkBW(l)))
	}
	return "custom:" + strconv.Itoa(n) + ":" + strconv.FormatUint(h.Sum64(), 16)
}
