// Package alloc models how a batch scheduler hands nodes to a job.
// On Cray systems the scheduler allocates a non-contiguous set of
// nodes; it attempts to assign nearby nodes (walking a linear ordering
// of the machine) but provides no locality guarantee because other
// jobs occupy parts of the machine (paper §II-B, Albing et al.). The
// generator reproduces that: it orders the torus along a space-filling
// curve, marks a random fraction of the machine as busy, and collects
// the first free nodes from a random starting offset.
package alloc

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sfc"
	"repro/internal/torus"
)

// Allocation is the node set Va reserved for the application, in
// allocation order (the order the scheduler assigned them, which the
// DEF mapping follows). ProcsPerNode holds the computation capacity
// w(m) of each allocated node. Speeds optionally holds per-node speed
// factors for heterogeneous machines (a node with speed s finishes a
// compute load L in L/s time units); nil means every node runs at
// unit speed — the homogeneous setting of the paper.
type Allocation struct {
	Nodes        []int32
	ProcsPerNode []int
	Speeds       []float64
}

// NumNodes returns |Va|.
func (a *Allocation) NumNodes() int { return len(a.Nodes) }

// Speed returns the speed factor of the i-th allocated node,
// defaulting to 1 when Speeds is nil.
func (a *Allocation) Speed(i int) float64 {
	if a.Speeds == nil {
		return 1
	}
	return a.Speeds[i]
}

// UnitSpeeds reports whether the allocation is homogeneous: no speed
// vector, or one where every factor is exactly 1.
func (a *Allocation) UnitSpeeds() bool {
	for _, s := range a.Speeds {
		if s != 1 {
			return false
		}
	}
	return true
}

// CanonicalizeSpeeds drops an all-unit speed vector, so a
// heterogeneous spec that spells out the homogeneous default
// fingerprints — and therefore caches and solves — identically to one
// that omits it.
func (a *Allocation) CanonicalizeSpeeds() {
	if a.Speeds != nil && a.UnitSpeeds() {
		a.Speeds = nil
	}
}

// TotalProcs returns the total number of allocated processors.
func (a *Allocation) TotalProcs() int {
	total := 0
	for _, p := range a.ProcsPerNode {
		total += p
	}
	return total
}

// Validate checks the allocation against a topology. Only hosts may
// be allocated: on a topology with switch vertices (one with a
// Hosts() method, like the fat tree and the dragonfly, whose hosts
// are ids 0..Hosts()-1) a switch id is out of range.
func (a *Allocation) Validate(topo torus.Topology) error {
	if len(a.Nodes) != len(a.ProcsPerNode) {
		return fmt.Errorf("alloc: %d nodes but %d capacities", len(a.Nodes), len(a.ProcsPerNode))
	}
	hosts := topo.Nodes()
	if h, ok := topo.(interface{ Hosts() int }); ok {
		hosts = h.Hosts()
	}
	seen := make(map[int32]bool, len(a.Nodes))
	for i, m := range a.Nodes {
		if m < 0 || int(m) >= hosts {
			return fmt.Errorf("alloc: node %d out of range (%d hosts)", m, hosts)
		}
		if seen[m] {
			return fmt.Errorf("alloc: duplicate node %d", m)
		}
		seen[m] = true
		if a.ProcsPerNode[i] <= 0 {
			return fmt.Errorf("alloc: node %d has capacity %d", m, a.ProcsPerNode[i])
		}
	}
	if a.Speeds != nil {
		if len(a.Speeds) != len(a.Nodes) {
			return fmt.Errorf("alloc: %d nodes but %d speeds", len(a.Nodes), len(a.Speeds))
		}
		for i, s := range a.Speeds {
			if !(s > 0) || math.IsInf(s, 1) {
				return fmt.Errorf("alloc: node %d has speed %g (need a positive finite factor)", a.Nodes[i], s)
			}
		}
	}
	return nil
}

// Mode selects the allocation policy.
type Mode int

// Allocation policies.
const (
	// Sparse walks the machine in SFC order with a random busy
	// fraction, yielding the non-contiguous locality-biased
	// allocations of Cray schedulers. This is the paper's setting.
	Sparse Mode = iota
	// Contiguous takes consecutive nodes in SFC order (BlueGene-like
	// block allocation).
	Contiguous
	// Scattered draws nodes uniformly at random (worst case).
	Scattered
)

// Config controls allocation generation.
type Config struct {
	Mode Mode
	// BusyFraction is the fraction of the machine occupied by other
	// jobs (Sparse mode only). Default 0.5.
	BusyFraction float64
	// ProcsPerNode is the uniform node capacity. Default 16 (paper
	// §IV-B uses 16 of Hopper's 24 cores per node).
	ProcsPerNode int
	// Seed makes the allocation deterministic.
	Seed int64
}

// DefaultProcsPerNode matches the paper's 16 processors per node.
const DefaultProcsPerNode = 16

// Generate reserves want nodes on a 3D (or higher-D) torus. For tori
// with more than three dimensions the SFC order degenerates to the
// first three dimensions by treating the rest row-major.
func Generate(t *torus.Torus, want int, cfg Config) (*Allocation, error) {
	if want <= 0 {
		return nil, fmt.Errorf("alloc: want %d nodes", want)
	}
	if want > t.Nodes() {
		return nil, fmt.Errorf("alloc: want %d nodes, machine has %d", want, t.Nodes())
	}
	if cfg.ProcsPerNode == 0 {
		cfg.ProcsPerNode = DefaultProcsPerNode
	}
	if cfg.BusyFraction == 0 {
		cfg.BusyFraction = 0.5
	}
	if cfg.BusyFraction < 0 || cfg.BusyFraction >= 1 {
		return nil, fmt.Errorf("alloc: busy fraction %g out of [0,1)", cfg.BusyFraction)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := MachineOrder(t)

	var nodes []int32
	switch cfg.Mode {
	case Contiguous:
		start := rng.Intn(t.Nodes())
		for i := 0; i < want; i++ {
			nodes = append(nodes, order[(start+i)%len(order)])
		}
	case Scattered:
		perm := rng.Perm(t.Nodes())
		for i := 0; i < want; i++ {
			nodes = append(nodes, int32(perm[i]))
		}
	case Sparse:
		// Occupy a random busy fraction, but never so much that the
		// request cannot be satisfied.
		free := t.Nodes()
		busyTarget := int(cfg.BusyFraction * float64(t.Nodes()))
		if free-busyTarget < want {
			busyTarget = free - want
		}
		busy := make([]bool, t.Nodes())
		for _, v := range rng.Perm(t.Nodes())[:busyTarget] {
			busy[v] = true
		}
		start := rng.Intn(len(order))
		for i := 0; len(nodes) < want && i < len(order); i++ {
			m := order[(start+i)%len(order)]
			if !busy[m] {
				nodes = append(nodes, m)
			}
		}
	default:
		return nil, fmt.Errorf("alloc: unknown mode %d", cfg.Mode)
	}
	if len(nodes) != want {
		return nil, fmt.Errorf("alloc: produced %d of %d nodes", len(nodes), want)
	}
	procs := make([]int, want)
	for i := range procs {
		procs[i] = cfg.ProcsPerNode
	}
	return &Allocation{Nodes: nodes, ProcsPerNode: procs}, nil
}

// SparseIDs reserves want ids out of [0,total) the way a busy
// scheduler does on any machine with a linear locality order: a
// seeded busyFraction of the ids is occupied and the first want free
// ids after a random offset are taken — non-contiguous but locality
// biased. busyFraction 0 yields a contiguous block. The indirect
// topologies (fat tree, dragonfly) use it with their host-id order,
// which follows the physical racks.
func SparseIDs(total, want int, seed int64, busyFraction float64) ([]int32, error) {
	if want <= 0 || want > total {
		return nil, fmt.Errorf("alloc: want %d of %d ids", want, total)
	}
	if busyFraction < 0 || busyFraction >= 1 {
		return nil, fmt.Errorf("alloc: busy fraction %g out of [0,1)", busyFraction)
	}
	rng := rand.New(rand.NewSource(seed))
	busy := make([]bool, total)
	busyTarget := int(busyFraction * float64(total))
	if total-busyTarget < want {
		busyTarget = total - want
	}
	for _, v := range rng.Perm(total)[:busyTarget] {
		busy[v] = true
	}
	start := rng.Intn(total)
	ids := make([]int32, 0, want)
	for i := 0; len(ids) < want && i < total; i++ {
		id := (start + i) % total
		if !busy[id] {
			ids = append(ids, int32(id))
		}
	}
	if len(ids) != want {
		return nil, fmt.Errorf("alloc: produced %d of %d ids", len(ids), want)
	}
	return ids, nil
}

// MachineOrder returns the nodes of the torus in the scheduler's
// linear (space-filling curve) order.
func MachineOrder(t *torus.Torus) []int32 {
	dims := t.Dims()
	switch {
	case len(dims) >= 3:
		x, y, z := dims[0], dims[1], dims[2]
		rest := 1
		for _, d := range dims[3:] {
			rest *= d
		}
		base := sfc.BoxOrder(sfc.OrderHilbert, x, y, z)
		if rest == 1 {
			return base
		}
		out := make([]int32, 0, t.Nodes())
		for r := 0; r < rest; r++ {
			offset := int32(r * x * y * z)
			for _, v := range base {
				out = append(out, v+offset)
			}
		}
		return out
	case len(dims) == 2:
		return sfc.BoxOrder(sfc.OrderHilbert, dims[0], dims[1], 1)
	default:
		return sfc.BoxOrder(sfc.OrderRowMajor, dims[0], 1, 1)
	}
}
