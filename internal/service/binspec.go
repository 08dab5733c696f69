package service

// Conversions between the JSON wire specs and their binary section
// bodies. Both protocols funnel into the SAME spec types
// (TopologySpec.Normalize/Key/Build, AllocationSpec.Key/Build,
// graph.FromTriples canonicalization), so an engine-cache key or a
// result fingerprint derived from a binary request is byte-identical
// to the one the equivalent JSON request derives — the property the
// cross-protocol equivalence tests pin.

import (
	"fmt"

	topomap "repro"
	"repro/internal/arena"
	"repro/internal/ds"
	"repro/internal/graph"
	"repro/internal/wirebin"
)

// topoKinds maps the binary topology kind byte to the spec kind
// string and back.
var topoKinds = map[byte]string{
	wirebin.TopoTorus:     "torus",
	wirebin.TopoMesh:      "mesh",
	wirebin.TopoFatTree:   "fattree",
	wirebin.TopoDragonfly: "dragonfly",
}

func topoKindByte(kind string) (byte, bool) {
	for b, s := range topoKinds {
		if s == kind {
			return b, true
		}
	}
	return 0, false
}

// AppendTopologySection encodes a topology spec as a binary section
// body. The spec is normalized first — normalization fills family
// defaults, so the encoded body (and therefore its intern
// fingerprint) is canonical for the network it denotes.
func AppendTopologySection(w *wirebin.Writer, ts TopologySpec) error {
	ts, err := ts.Normalize()
	if err != nil {
		return err
	}
	kind, ok := topoKindByte(ts.Kind)
	if !ok {
		return fmt.Errorf("topology: kind %q has no binary encoding", ts.Kind)
	}
	bt := wirebin.Topology{
		Kind: kind, BW: ts.BW,
		K: uint32(ts.K), H: uint32(ts.H),
		BWHost: ts.BWHost, Taper: ts.Taper, BWLocal: ts.BWLocal, BWGlobal: ts.BWGlobal,
	}
	if len(ts.Dims) > 0 {
		bt.Dims = make([]int32, len(ts.Dims))
		for i, d := range ts.Dims {
			bt.Dims[i] = int32(d)
		}
	}
	wirebin.AppendTopology(w, &bt)
	return nil
}

// topoSpecFromBinary lifts a decoded binary topology onto the spec
// type and re-normalizes — idempotent for bodies a conforming client
// encoded, corrective for hand-rolled ones.
func topoSpecFromBinary(bt *wirebin.Topology) (TopologySpec, error) {
	kind, ok := topoKinds[bt.Kind]
	if !ok {
		return TopologySpec{}, fmt.Errorf("topology: unknown binary kind %d", bt.Kind)
	}
	ts := TopologySpec{
		Kind: kind, BW: bt.BW,
		K: int(bt.K), H: int(bt.H),
		BWHost: bt.BWHost, Taper: bt.Taper, BWLocal: bt.BWLocal, BWGlobal: bt.BWGlobal,
	}
	if len(bt.Dims) > 0 {
		ts.Dims = make([]int, len(bt.Dims))
		for i, d := range bt.Dims {
			ts.Dims[i] = int(d)
		}
	}
	return ts.Normalize()
}

// AppendAllocationSection encodes an allocation spec as a binary
// section body.
func AppendAllocationSection(w *wirebin.Writer, as AllocationSpec) error {
	switch {
	case len(as.Nodes) > 0 && as.SparseNodes > 0:
		return fmt.Errorf("allocation: give nodes or sparse_nodes, not both")
	case as.SparseNodes > 0:
		wirebin.AppendAllocation(w, &wirebin.Allocation{
			Form: wirebin.AllocSparse, SparseNodes: uint32(as.SparseNodes), Seed: as.Seed,
		})
		return nil
	case len(as.Nodes) == 0:
		return fmt.Errorf("allocation: need nodes or sparse_nodes")
	}
	ba := wirebin.Allocation{Form: wirebin.AllocExplicit, Nodes: as.Nodes}
	switch len(as.ProcsPerNode) {
	case 0:
		ba.CapsForm = wirebin.CapsDefault
	case 1:
		ba.CapsForm = wirebin.CapsUniform
		ba.UniformProcs = uint32(as.ProcsPerNode[0])
	case len(as.Nodes):
		ba.CapsForm = wirebin.CapsPerNode
		ba.ProcsPerNode = make([]int32, len(as.ProcsPerNode))
		for i, p := range as.ProcsPerNode {
			ba.ProcsPerNode[i] = int32(p)
		}
	default:
		return fmt.Errorf("allocation: %d nodes but %d capacities", len(as.Nodes), len(as.ProcsPerNode))
	}
	// Speeds resolve through the same canonicalization as the JSON
	// path: a single factor broadcasts, a unit vector drops to the
	// absent (legacy) encoding so the body fingerprint never splits.
	if len(as.Speeds) > 0 {
		r, err := as.resolve()
		if err != nil {
			return err
		}
		ba.Speeds = r.Speeds
	}
	wirebin.AppendAllocation(w, &ba)
	return nil
}

// allocSpecFromBinary lifts a decoded binary allocation onto the spec
// type. The decoded slices are fresh copies (never frame views), so
// retaining the spec in the intern table is safe.
func allocSpecFromBinary(ba *wirebin.Allocation) (AllocationSpec, error) {
	switch ba.Form {
	case wirebin.AllocSparse:
		if ba.SparseNodes == 0 {
			return AllocationSpec{}, fmt.Errorf("allocation: sparse form needs nodes > 0")
		}
		return AllocationSpec{SparseNodes: int(ba.SparseNodes), Seed: ba.Seed}, nil
	case wirebin.AllocExplicit:
		as := AllocationSpec{Nodes: ba.Nodes, Speeds: ba.Speeds}
		switch ba.CapsForm {
		case wirebin.CapsDefault:
		case wirebin.CapsUniform:
			as.ProcsPerNode = []int{int(ba.UniformProcs)}
		case wirebin.CapsPerNode:
			as.ProcsPerNode = make([]int, len(ba.ProcsPerNode))
			for i, p := range ba.ProcsPerNode {
				as.ProcsPerNode[i] = int(p)
			}
		}
		return as, nil
	}
	return AllocationSpec{}, fmt.Errorf("allocation: unknown binary form %d", ba.Form)
}

// AppendTasksSection encodes a task-graph spec as a binary section
// body: the spec is built first (the shared canonicalization — self
// loops dropped, parallel edges merged, adjacency sorted), then the
// canonical CSR arrays travel verbatim.
func AppendTasksSection(w *wirebin.Writer, ts TaskGraphSpec) error {
	tg, err := ts.Build()
	if err != nil {
		return err
	}
	// Build canonicalized unit loads to a nil VW and absent coordinates
	// to a nil slice, so homogeneous coordinate-free graphs keep the
	// legacy body bytes.
	wirebin.AppendTasksCSR(w, tg.G.Xadj, tg.G.Adj, tg.G.EW, tg.G.VW, tg.Coords, tg.Dim)
	return nil
}

// binArena pools the edge-triple staging buffers of task-graph builds
// on both protocols, shared across requests (the arena is
// concurrency-safe).
var binArena = arena.New()

// taskGraphFromCSR builds the engine's task graph straight from a
// CSR section view: the triples are staged in an arena-recycled
// buffer indexed directly off the frame bytes — no intermediate
// edge-list or spec struct — and canonicalized by the same
// FromTriples path the JSON spec builder bottoms out in. Validation
// matches TaskGraphSpec.Build: endpoints in range, volumes positive,
// self loops dropped, n capped.
func taskGraphFromCSR(t wirebin.TasksCSR) (*topomap.TaskGraph, error) {
	if t.N <= 0 {
		return nil, fmt.Errorf("tasks: need n > 0, got %d", t.N)
	}
	if t.N > maxTasks {
		return nil, fmt.Errorf("tasks: n=%d exceeds the %d-task service limit", t.N, maxTasks)
	}
	tri := binArena.Edges(t.M)
	defer binArena.PutEdges(tri)
	cnt := 0
	for v := 0; v < t.N; v++ {
		lo, hi := t.Xadj(v), t.Xadj(v+1)
		for j := lo; j < hi; j++ {
			dst, vol := t.Adj(j), t.EW(j)
			if dst < 0 || int(dst) >= t.N {
				return nil, fmt.Errorf("tasks: edge %d endpoint out of [0,%d)", j, t.N)
			}
			if vol <= 0 {
				return nil, fmt.Errorf("tasks: edge %d has volume %d", j, vol)
			}
			if int32(v) == dst {
				continue // self loop, dropped like the JSON path
			}
			tri[cnt] = ds.EdgeTriple{U: int32(v), V: dst, W: vol}
			cnt++
		}
	}
	var loads []int64
	if t.HasLoads() {
		unit := true
		loads = make([]int64, t.N)
		for i := range loads {
			l := t.Load(i)
			if l < 0 {
				return nil, fmt.Errorf("tasks: task %d has negative load %d", i, l)
			}
			if l != 1 {
				unit = false
			}
			loads[i] = l
		}
		// Match TaskGraphSpec.Build: a unit loads vector canonicalizes
		// to absent, so both protocols hash and memo identically.
		if unit {
			loads = nil
		}
	}
	tg := &topomap.TaskGraph{G: graph.FromTriples(t.N, tri[:cnt], loads), K: t.N}
	if t.HasCoords() {
		dim := t.CoordDim()
		coords := make([]float64, t.N*dim)
		for i := 0; i < t.N; i++ {
			for d := 0; d < dim; d++ {
				coords[i*dim+d] = t.Coord(i, d)
			}
		}
		// SetCoords re-validates dim and finiteness — the structural
		// decoder accepts any f64 bits, the semantic boundary does not.
		if err := tg.SetCoords(dim, coords); err != nil {
			return nil, fmt.Errorf("tasks: %w", err)
		}
	}
	return tg, nil
}
