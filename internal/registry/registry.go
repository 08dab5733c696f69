// Package registry is the pluggable mapper registry behind the
// public Engine API: every mapping algorithm — the paper's seven
// Figure-2 mappers, the seven extension variants (UTH, TMAPG, UML,
// UMCA, HET, GEOM, SFCM), and any mapper a downstream user
// registers — is a MapperSpec dispatched by name.
// Adding a mapper therefore never touches the engine, and the
// CLI/flag surfaces derive their mapper lists instead of duplicating
// them.
package registry

import (
	"fmt"
	"sync"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/torus"
)

// Input is everything a mapper may consume for one request. Topo is
// the engine's route table (a *routecache.Table of the allocation);
// torus.As discovers geometry and multipath support through it.
type Input struct {
	// Coarse is the symmetric volume-weighted supertask graph, one
	// vertex per allocated node.
	Coarse *graph.Graph
	// Msg is the message-count-weighted view of the same supertasks;
	// populated only when the spec declares NeedsMessageGraph.
	Msg *graph.Graph
	// Topo is the network the mapping targets, as the engine's route
	// table; the built-in UMPA mappers read distances and routes from
	// it by allocation index.
	Topo torus.Topology
	// Alloc is the reserved node set, in scheduler order.
	Alloc *alloc.Allocation
	// Seed drives any randomized choice the mapper makes.
	Seed int64
	// Coords are per-group geometric centroids (group-major flattened,
	// Dim values per group, load-weighted means of the member tasks'
	// coordinates); populated only when the spec declares NeedsCoords.
	Coords []float64
	// Dim is the coordinate dimensionality of Coords (2 or 3; 0 when
	// absent).
	Dim int
	// Exec is the solve's execution context: the bounded worker pool
	// for intra-request parallelism, the scratch arena, and the
	// cooperative cancellation signal. May be nil (serial, fresh
	// allocations, never cancelled); mappers that ignore it stay
	// correct, just serial.
	Exec *core.Exec
}

// Caps are a mapper's declared capability requirements; the engine
// prepares inputs and grouping accordingly.
type Caps struct {
	// NeedsMessageGraph asks the engine to aggregate the
	// message-count coarse graph into Input.Msg (UMMC-style mappers).
	NeedsMessageGraph bool `json:"needs_message_graph"`
	// NeedsMultipath requires the topology to enumerate minimal
	// routes (torus.MultipathTopology); the engine rejects requests
	// on topologies that cannot.
	NeedsMultipath bool `json:"needs_multipath"`
	// BlockGrouping groups tasks into consecutive-rank blocks (the
	// SMP-style DEF placement) instead of partitioning the task
	// graph, and skips the heterogeneous capacity repair.
	BlockGrouping bool `json:"block_grouping"`
	// NeedsCoords requires per-task geometric coordinates on the task
	// graph (geometric/SFC mappers); the engine rejects requests whose
	// graph carries none, and coordinate-free portfolios filter these
	// mappers out.
	NeedsCoords bool `json:"needs_coords"`
}

// MapperSpec is one registered mapping algorithm.
type MapperSpec interface {
	// Name is the registry key (canonically upper-case, e.g. "UWH").
	Name() string
	// Caps declares what the engine must prepare.
	Caps() Caps
	// Map places the supertasks of in.Coarse one-to-one onto
	// allocated nodes and returns the supertask→node vector.
	Map(in Input) ([]int32, error)
}

// funcSpec adapts a plain function to MapperSpec.
type funcSpec struct {
	name string
	caps Caps
	fn   func(Input) ([]int32, error)
}

func (f *funcSpec) Name() string                  { return f.name }
func (f *funcSpec) Caps() Caps                    { return f.caps }
func (f *funcSpec) Map(in Input) ([]int32, error) { return f.fn(in) }

// NewFunc wraps a function as a MapperSpec.
func NewFunc(name string, caps Caps, fn func(Input) ([]int32, error)) MapperSpec {
	return &funcSpec{name: name, caps: caps, fn: fn}
}

var (
	mu    sync.RWMutex
	specs = map[string]MapperSpec{}
	order []string
)

// Register adds a mapper to the registry. Empty names and duplicate
// names are rejected — a registered mapper can never be silently
// replaced.
func Register(s MapperSpec) error {
	name := s.Name()
	if name == "" {
		return fmt.Errorf("registry: mapper name must not be empty")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := specs[name]; dup {
		return fmt.Errorf("registry: mapper %q already registered", name)
	}
	specs[name] = s
	order = append(order, name)
	return nil
}

// MustRegister is Register for init-time built-ins.
func MustRegister(s MapperSpec) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// Lookup returns the spec registered under name.
func Lookup(name string) (MapperSpec, bool) {
	mu.RLock()
	defer mu.RUnlock()
	s, ok := specs[name]
	return s, ok
}

// Names returns every registered mapper name in registration order
// (built-ins first, in figure order).
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	return append([]string(nil), order...)
}

// Info describes one registered mapper for capability listings (the
// mapd /v1/mappers payload, CLI usage strings).
type Info struct {
	Name string `json:"name"`
	Caps Caps   `json:"caps"`
}

// List returns the name and capability flags of every registered
// mapper in registration order (built-ins first, in figure order).
func List() []Info {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Info, 0, len(order))
	for _, name := range order {
		out = append(out, Info{Name: name, Caps: specs[name].Caps()})
	}
	return out
}

// Figure2Names are the seven mappers of the paper's Figure 2, in
// figure order.
func Figure2Names() []string {
	return []string{"DEF", "TMAP", "SMAP", "UG", "UWH", "UMC", "UMMC"}
}
