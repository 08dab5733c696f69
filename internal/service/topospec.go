package service

import (
	"fmt"
	"strconv"
	"strings"

	topomap "repro"
	"repro/internal/alloc"
)

// TopologySpec is the wire form of a network: a family kind plus the
// family's construction parameters. Omitted bandwidths default to the
// values the CLI and the paper's experiments use (Hopper-like Gemini
// links on tori, 10 GB/s host links on fat trees and dragonflies).
type TopologySpec struct {
	// Kind selects the family: "torus", "mesh", "fattree",
	// "dragonfly".
	Kind string `json:"kind"`
	// Dims and BW are the torus/mesh dimension sizes and
	// per-dimension bandwidths.
	Dims []int     `json:"dims,omitempty"`
	BW   []float64 `json:"bw,omitempty"`
	// K, BWHost and Taper parameterize the k-ary fat tree.
	K      int     `json:"k,omitempty"`
	BWHost float64 `json:"bw_host,omitempty"`
	Taper  float64 `json:"taper,omitempty"`
	// H, BWHost, BWLocal and BWGlobal parameterize the dragonfly.
	H        int     `json:"h,omitempty"`
	BWLocal  float64 `json:"bw_local,omitempty"`
	BWGlobal float64 `json:"bw_global,omitempty"`
}

// maxTopologyNodes bounds wire-built networks: the cost of a request
// is derived from a handful of small integers (dims, k, h), not from
// its body size, so without a cap a few-hundred-byte payload could
// make the daemon allocate multi-billion-node routing state.
const maxTopologyNodes = 1 << 22

// Default bandwidths of the wire protocol, matching cmd/mapper.
const (
	defaultBWHigh   = 9.38e9 // Hopper Gemini X/Z links
	defaultBWLow    = 4.68e9 // Hopper Gemini Y links
	defaultBWHost   = 10e9
	defaultBWLocal  = 5e9
	defaultBWGlobal = 4e9
	defaultTaper    = 2
)

// Normalize validates the spec and fills family defaults, so that
// Key and Build agree on every parameter.
func (s TopologySpec) Normalize() (TopologySpec, error) {
	s.Kind = strings.ToLower(s.Kind)
	switch s.Kind {
	case "torus", "mesh":
		if len(s.Dims) == 0 {
			return s, fmt.Errorf("topology: %s needs dims", s.Kind)
		}
		nodes := 1
		for _, d := range s.Dims {
			if d < 1 {
				return s, fmt.Errorf("topology: bad dimension %d", d)
			}
			if nodes > maxTopologyNodes/d {
				return s, fmt.Errorf("topology: %v exceeds the %d-node service limit", s.Dims, maxTopologyNodes)
			}
			nodes *= d
		}
		if len(s.BW) == 0 {
			s.BW = make([]float64, len(s.Dims))
			for d := range s.BW {
				s.BW[d] = defaultBWHigh
			}
			if len(s.Dims) == 3 {
				s.BW[1] = defaultBWLow // Hopper's slow Y dimension
			}
		}
		if len(s.BW) != len(s.Dims) {
			return s, fmt.Errorf("topology: %d dims but %d bandwidths", len(s.Dims), len(s.BW))
		}
		for _, b := range s.BW {
			if b <= 0 {
				return s, fmt.Errorf("topology: bandwidths must be positive")
			}
		}
	case "fattree":
		if s.K == 0 {
			s.K = 8
		}
		if s.K < 2 || s.K%2 != 0 {
			return s, fmt.Errorf("topology: fat-tree arity k must be even and >= 2, got %d", s.K)
		}
		// hosts = (k²/4)·k, k even. Bounding k first keeps k² in range;
		// the division keeps the product from wrapping.
		if k := s.K; k > maxTopologyNodes || k*k/4 > maxTopologyNodes/k {
			return s, fmt.Errorf("topology: fat-tree k=%d exceeds the %d-node service limit", s.K, maxTopologyNodes)
		}
		if s.BWHost == 0 {
			s.BWHost = defaultBWHost
		}
		if s.Taper == 0 {
			s.Taper = defaultTaper
		}
		if s.BWHost <= 0 || s.Taper < 1 {
			return s, fmt.Errorf("topology: need bw_host > 0 and taper >= 1")
		}
	case "dragonfly":
		if s.H == 0 {
			s.H = 3
		}
		if s.H < 1 {
			return s, fmt.Errorf("topology: dragonfly needs h >= 1, got %d", s.H)
		}
		// hosts = (2h²+1) · 2h · h. Bounding h first keeps 2h² in range;
		// the division keeps the product from wrapping.
		if h := s.H; h > maxTopologyNodes || 2*h*h+1 > maxTopologyNodes/(2*h*h) {
			return s, fmt.Errorf("topology: dragonfly h=%d exceeds the %d-node service limit", s.H, maxTopologyNodes)
		}
		if s.BWHost == 0 {
			s.BWHost = defaultBWHost
		}
		if s.BWLocal == 0 {
			s.BWLocal = defaultBWLocal
		}
		if s.BWGlobal == 0 {
			s.BWGlobal = defaultBWGlobal
		}
		if s.BWHost <= 0 || s.BWLocal <= 0 || s.BWGlobal <= 0 {
			return s, fmt.Errorf("topology: bandwidths must be positive")
		}
	case "":
		return s, fmt.Errorf("topology: missing kind (want torus, mesh, fattree or dragonfly)")
	default:
		return s, fmt.Errorf("topology: unknown kind %q (want torus, mesh, fattree or dragonfly)", s.Kind)
	}
	return s, nil
}

// Key returns the canonical fingerprint of the normalized spec. It is
// defined to equal the built topology's TopologyFingerprint, so a
// spec-derived cache key and an engine-derived one never alias or
// split — TestTopologySpecKeyMatchesFingerprint pins the equality.
func (s TopologySpec) Key() string {
	var b strings.Builder
	switch s.Kind {
	case "torus", "mesh":
		b.WriteString(s.Kind)
		b.WriteByte(':')
		for d, sz := range s.Dims {
			if d > 0 {
				b.WriteByte('x')
			}
			b.WriteString(strconv.Itoa(sz))
		}
		b.WriteString(";bw=")
		for d, bw := range s.BW {
			if d > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(bw, 'g', -1, 64))
		}
	case "fattree":
		fmt.Fprintf(&b, "fattree:k=%d;bw=%s;taper=%s", s.K,
			strconv.FormatFloat(s.BWHost, 'g', -1, 64),
			strconv.FormatFloat(s.Taper, 'g', -1, 64))
	case "dragonfly":
		fmt.Fprintf(&b, "dragonfly:h=%d;bw=%s,%s,%s", s.H,
			strconv.FormatFloat(s.BWHost, 'g', -1, 64),
			strconv.FormatFloat(s.BWLocal, 'g', -1, 64),
			strconv.FormatFloat(s.BWGlobal, 'g', -1, 64))
	}
	return b.String()
}

// Network bundles a built topology with its placement-host count,
// human label, and sparse-allocation generator, so callers (the
// service, cmd/mapper) stay topology-agnostic.
type Network struct {
	Topo  topomap.Topology
	Label string
	// Hosts is the number of placement-eligible nodes; ids 0..Hosts-1.
	Hosts int
	// SparseAlloc reserves n hosts the way a busy scheduler does.
	SparseAlloc func(n int, seed int64) (*topomap.Allocation, error)
}

// Build constructs the network of a normalized spec.
func (s TopologySpec) Build() (*Network, error) {
	switch s.Kind {
	case "torus", "mesh":
		dimsLabel := make([]string, len(s.Dims))
		for d, sz := range s.Dims {
			dimsLabel[d] = strconv.Itoa(sz)
		}
		var t *topomap.Torus
		if s.Kind == "mesh" {
			t = topomap.NewTorusMesh(s.Dims, s.BW)
		} else {
			t = topomap.NewTorus(s.Dims, s.BW)
		}
		return &Network{
			Topo:  t,
			Label: s.Kind + " " + strings.Join(dimsLabel, "x"),
			Hosts: t.Nodes(),
			SparseAlloc: func(n int, seed int64) (*topomap.Allocation, error) {
				return topomap.SparseAllocation(t, n, seed)
			},
		}, nil
	case "fattree":
		ft, err := topomap.NewFatTree(s.K, s.BWHost, s.Taper)
		if err != nil {
			return nil, err
		}
		return &Network{
			Topo:  ft,
			Label: fmt.Sprintf("fat tree k=%d (%d hosts)", s.K, ft.Hosts()),
			Hosts: ft.Hosts(),
			SparseAlloc: func(n int, seed int64) (*topomap.Allocation, error) {
				return topomap.FatTreeSparseHosts(ft, n, seed)
			},
		}, nil
	case "dragonfly":
		d, err := topomap.NewDragonfly(s.H, s.BWHost, s.BWLocal, s.BWGlobal)
		if err != nil {
			return nil, err
		}
		return &Network{
			Topo:  d,
			Label: fmt.Sprintf("dragonfly h=%d (%d hosts)", s.H, d.Hosts()),
			Hosts: d.Hosts(),
			SparseAlloc: func(n int, seed int64) (*topomap.Allocation, error) {
				return topomap.DragonflySparseHosts(d, n, seed)
			},
		}, nil
	}
	return nil, fmt.Errorf("topology: unknown kind %q", s.Kind)
}

// AllocationSpec is the wire form of an allocation: either the
// explicit node set the scheduler handed out (Nodes, with
// ProcsPerNode empty for the default 16, one entry for a uniform
// capacity, or one entry per node; Speeds likewise empty for unit
// speed, one entry for a uniform factor, or one entry per node), or
// SparseNodes+Seed asking the server to generate a busy-scheduler
// sparse allocation (always unit speed — heterogeneous node sets come
// from a real scheduler, explicitly).
type AllocationSpec struct {
	Nodes        []int32   `json:"nodes,omitempty"`
	ProcsPerNode []int     `json:"procs_per_node,omitempty"`
	Speeds       []float64 `json:"speeds,omitempty"`
	SparseNodes  int       `json:"sparse_nodes,omitempty"`
	Seed         int64     `json:"seed,omitempty"`
}

// resolve expands the explicit form into a full Allocation (node
// range checking happens against the built network in Build).
func (a AllocationSpec) resolve() (*topomap.Allocation, error) {
	procs := make([]int, len(a.Nodes))
	switch len(a.ProcsPerNode) {
	case 0:
		for i := range procs {
			procs[i] = alloc.DefaultProcsPerNode
		}
	case 1:
		for i := range procs {
			procs[i] = a.ProcsPerNode[0]
		}
	case len(a.Nodes):
		copy(procs, a.ProcsPerNode)
	default:
		return nil, fmt.Errorf("allocation: %d nodes but %d capacities", len(a.Nodes), len(a.ProcsPerNode))
	}
	r := &topomap.Allocation{Nodes: append([]int32(nil), a.Nodes...), ProcsPerNode: procs}
	switch len(a.Speeds) {
	case 0:
	case 1:
		r.Speeds = make([]float64, len(a.Nodes))
		for i := range r.Speeds {
			r.Speeds[i] = a.Speeds[0]
		}
	case len(a.Nodes):
		r.Speeds = append([]float64(nil), a.Speeds...)
	default:
		return nil, fmt.Errorf("allocation: %d nodes but %d speeds", len(a.Nodes), len(a.Speeds))
	}
	// A unit speed vector is the nil default — canonicalizing here keeps
	// the fingerprint (and so the engine cache key and solve memo) of
	// an explicit speeds=[1,...] spec identical to an absent one.
	r.CanonicalizeSpeeds()
	return r, nil
}

// Key returns the allocation part of the engine cache key: the
// fingerprint of the explicit node set, or the generation parameters
// (which determine the node set, given the topology).
func (a AllocationSpec) Key() (string, error) {
	switch {
	case len(a.Nodes) > 0 && a.SparseNodes > 0:
		return "", fmt.Errorf("allocation: give nodes or sparse_nodes, not both")
	case len(a.Nodes) > 0:
		r, err := a.resolve()
		if err != nil {
			return "", err
		}
		return topomap.AllocationFingerprint(r), nil
	case a.SparseNodes > 0:
		if len(a.Speeds) > 0 {
			return "", fmt.Errorf("allocation: speeds need explicit nodes, not sparse_nodes")
		}
		return "gen:" + strconv.Itoa(a.SparseNodes) + ":" + strconv.FormatInt(a.Seed, 10), nil
	}
	return "", fmt.Errorf("allocation: need nodes or sparse_nodes")
}

// Build materializes the allocation on the built network. It repeats
// Key's exclusivity validation so direct callers cannot slip an
// ambiguous spec past the cache layer.
func (a AllocationSpec) Build(net *Network) (*topomap.Allocation, error) {
	switch {
	case len(a.Nodes) > 0 && a.SparseNodes > 0:
		return nil, fmt.Errorf("allocation: give nodes or sparse_nodes, not both")
	case len(a.Nodes) == 0 && a.SparseNodes <= 0:
		return nil, fmt.Errorf("allocation: need nodes or sparse_nodes")
	case a.SparseNodes > 0:
		if len(a.Speeds) > 0 {
			return nil, fmt.Errorf("allocation: speeds need explicit nodes, not sparse_nodes")
		}
		return net.SparseAlloc(a.SparseNodes, a.Seed)
	}
	r, err := a.resolve()
	if err != nil {
		return nil, err
	}
	for _, n := range r.Nodes {
		if int(n) >= net.Hosts {
			return nil, fmt.Errorf("allocation: node %d outside the %d placement-eligible nodes of the %s", n, net.Hosts, net.Label)
		}
	}
	return r, nil
}
