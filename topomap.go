// Package topomap is a topology-aware task mapping library
// reproducing "Fast and high quality topology-aware task mapping"
// (Deveci, Kaya, Uçar, Çatalyürek; IPDPS 2015). It maps the
// communicating tasks of a parallel application onto a sparse
// allocation of nodes in a network — torus, fat tree, dragonfly, or
// any custom Topology — minimizing the weighted hop (WH) and maximum
// link congestion (MC) metrics with the paper's greedy construction
// and refinement algorithms.
//
// The package serves the paper's mapping pipeline (§III):
//
//	task graph → grouping → mapping → refinement → metrics
//
// The evaluation apparatus of §IV — the synthetic matrix dataset, the
// partitioner personalities that turn it into task graphs, and the
// raw stage and simulator entry points the figures sweep — is not
// part of this API: internal/exp and cmd/experiments regenerate every
// figure from it. A served solve still scores its mapping with the
// §IV-C simulator on request (Solve.Sim).
//
// The service-shaped core is the Engine: build it once per
// (Topology, Allocation) pair — it precomputes and caches the
// pairwise routing state of the allocated nodes — then serve mapping
// jobs against it, serially, concurrently, or in batches. Every job
// is one declarative, serializable Solve spec:
//
//	tg, _ := topomap.StencilTaskGraph(16, 16, 1, 100)
//	topo := topomap.NewHopperTorus(8, 8, 8)
//	alloc, _ := topomap.SparseAllocation(topo, 16, 1)
//	eng, _ := topomap.NewEngine(topo, alloc)
//	res, _ := eng.RunSolve(ctx, tg, topomap.Solve{Mapper: topomap.UWH, Seed: 1})
//	fmt.Println(res.Metrics.WH, res.Metrics.MC)
//
// The same Solve runs unchanged on a fat tree or a dragonfly — swap
// the two topology lines:
//
//	ft, _ := topomap.NewFatTree(8, 10e9, 2)
//	alloc, _ := topomap.FatTreeSparseHosts(ft, 16, 1)
//	eng, _ := topomap.NewEngine(ft, alloc)
//
// Mapping algorithms are dispatched through a registry; RegisterMapper
// plugs in custom mappers next to the fourteen built-ins, and
// Engine.RunBatch fans many solves of one task graph out over a
// worker pool with deterministic results. Engine.RunRemap moves a
// finished result onto a changed allocation. NewCachedEngine serves
// engines from a process-wide LRU keyed by the canonical (topology,
// allocation) fingerprint; cmd/mapd exposes the same machinery as a
// resident HTTP service for job-launch-time mapping.
//
// Callers that want an outcome instead of an algorithm declare an
// Objective — minimize WH, MC, MMC, simulated seconds, or a weighted
// combination — and race a candidate portfolio of Solve specs with
// Engine.RunPortfolio: the engine fans the candidates over a bounded
// pool, scores every finished result, and returns a deterministic
// winner plus the per-candidate leaderboard. The winning mapper
// genuinely varies by topology and graph shape (see
// examples/portfolio), which is the point.
//
// Inside one request, the whole solve pipeline — grouping bisection,
// greedy construction, WH and congestion refinement, metric
// evaluation — runs on a single bounded worker pool (Solve.Workers)
// with a hard determinism contract: worker count changes wall-clock
// only, never bytes.
// docs/ARCHITECTURE.md maps the paper's algorithms onto the packages
// and diagrams the pipeline and the service layers on top.
package topomap

import (
	"io"

	"repro/internal/alloc"
	"repro/internal/dragonfly"
	"repro/internal/fattree"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/rankfile"
	"repro/internal/registry"
	"repro/internal/taskgraph"
	"repro/internal/torus"
)

// Re-exported pipeline types. These are aliases of the implementing
// packages so the whole library is usable through this single import.
type (
	// Graph is a CSR graph (task graphs, coarse graphs).
	Graph = graph.Graph
	// Torus is an N-dimensional torus network with static routing.
	Torus = torus.Torus
	// Topology is the abstract network interface.
	Topology = torus.Topology
	// Allocation is a reserved node set with per-node capacities.
	Allocation = alloc.Allocation
	// TaskGraph is a directed MPI task communication graph.
	TaskGraph = taskgraph.TaskGraph
	// MapMetrics are the mapping metrics TH/WH/MMC/MC/AMC/AC and the
	// regression covariates.
	MapMetrics = metrics.MapMetrics
	// Placement composes task→group→node.
	Placement = metrics.Placement
	// SimParams tunes the execution-time simulator.
	SimParams = netsim.Params
	// FatTree is a k-ary fat-tree network with static D-mod-k
	// routing; it implements Topology.
	FatTree = fattree.FatTree
	// Dragonfly is a canonical dragonfly network (Cray Aries class)
	// with unique hierarchical minimal routing; it implements
	// Topology.
	Dragonfly = dragonfly.Dragonfly
)

// NewHopperTorus returns a 3D torus with Hopper's heterogeneous
// Gemini link bandwidths.
func NewHopperTorus(x, y, z int) *Torus { return torus.NewHopper3D(x, y, z) }

// NewTorus returns a torus with arbitrary dimensions and
// per-dimension bandwidths (supports the 5D/6D networks of the
// paper's introduction).
func NewTorus(dims []int, bw []float64) *Torus { return torus.New(dims, bw) }

// NewTorusMesh returns the mesh (no wraparound) counterpart of
// NewTorus.
func NewTorusMesh(dims []int, bw []float64) *Torus { return torus.NewMesh(dims, bw) }

// NewFatTree returns a k-ary fat tree (k even): k³/4 hosts on k pods
// of k/2 edge and k/2 aggregation switches plus (k/2)² cores. bwHost
// is the host-uplink bandwidth; taper >= 1 divides the bandwidth per
// level upward (1 = full bisection). Hosts are vertices 0..k³/4-1;
// the mapping algorithms and metrics run on it unchanged (§III: the
// WH algorithms "can be applied to various topologies").
func NewFatTree(k int, bwHost, taper float64) (*FatTree, error) {
	return fattree.New(k, bwHost, taper)
}

// FatTreeSparseHosts reserves n hosts on a busy fat tree the way
// SparseAllocation does on a torus: non-contiguous but locality
// biased, with 16 processors per host.
func FatTreeSparseHosts(ft *FatTree, n int, seed int64) (*Allocation, error) {
	return alloc.SparseHosts(ft.Hosts(), n, alloc.DefaultProcsPerNode, seed)
}

// NewDragonfly returns a canonical dragonfly with h global links per
// router: groups of 2h routers (h hosts each), 2h²+1 groups, one
// global link per group pair, full local mesh per group, and unique
// hierarchical minimal routing. Hosts are vertices 0..Hosts()-1. The
// third topology family behind the §III "various topologies" claim.
func NewDragonfly(h int, bwHost, bwLocal, bwGlobal float64) (*Dragonfly, error) {
	return dragonfly.New(h, bwHost, bwLocal, bwGlobal)
}

// DragonflySparseHosts reserves n hosts on a busy dragonfly,
// non-contiguous but locality biased, with 16 processors per host.
func DragonflySparseHosts(d *Dragonfly, n int, seed int64) (*Allocation, error) {
	return alloc.SparseHosts(d.Hosts(), n, alloc.DefaultProcsPerNode, seed)
}

// SparseAllocation reserves n nodes the way Cray's scheduler does:
// non-contiguous but locality-biased, with 16 processors per node.
func SparseAllocation(t *Torus, n int, seed int64) (*Allocation, error) {
	return alloc.Generate(t, n, alloc.Config{Mode: alloc.Sparse, Seed: seed})
}

// FromEdges builds a graph from a directed weighted edge list
// (parallel edges merged, self loops dropped); use it to hand-author
// task graphs for an Engine.
func FromEdges(n int, us, vs []int32, ws []int64) *Graph {
	return graph.FromEdges(n, us, vs, ws, nil)
}

// StencilTaskGraph generates the halo-exchange task graph of an
// nx×ny×nz structured grid: one task per cell, face-neighbor exchanges
// of volume vol (5-point in 2D when nz == 1, 7-point in 3D), and
// per-task grid coordinates attached — the canonical
// coordinate-carrying workload for the geometric mappers.
func StencilTaskGraph(nx, ny, nz int, vol int64) (*TaskGraph, error) {
	return taskgraph.Stencil(nx, ny, nz, vol)
}

// ReadTaskGraph parses a task graph from the text edge-list format
// ("src dst volume" lines; see TaskGraph.Encode).
func ReadTaskGraph(r io.Reader) (*TaskGraph, error) { return taskgraph.Read(r) }

// Mapper names a mapping algorithm of the evaluation (§IV-B).
type Mapper string

// The mappers: first the seven of the paper's figures (the Hopper
// default, two baselines, four UMPA variants), then the extension
// variants the paper sketches but does not plot.
const (
	// DEF is the SMP-style default mapping of Hopper: ranks fill the
	// allocated nodes in scheduler order, block by block — the
	// baseline every figure normalizes to.
	DEF Mapper = "DEF"
	// TMAP is the LibTopoMap-like baseline: recursive bipartitioning
	// with MC as its primary metric, falling back to DEF when it
	// cannot improve on it.
	TMAP Mapper = "TMAP"
	// SMAP is the Scotch-like baseline: dual recursive
	// bipartitioning of the task graph and the allocated nodes.
	SMAP Mapper = "SMAP"
	// UG is the paper's greedy construction alone (Algorithm 1, the
	// better of NBFS ∈ {0,1}).
	UG Mapper = "UG"
	// UWH is UG followed by weighted-hop swap refinement
	// (Algorithm 2) — the paper's speed/quality sweet spot.
	UWH Mapper = "UWH"
	// UMC is UG followed by volume-congestion refinement
	// (Algorithm 3), minimizing the maximum link congestion MC.
	UMC Mapper = "UMC"
	// UMMC is UG followed by message-congestion refinement: the
	// Algorithm 3 adaptation that counts messages per link (MMC)
	// instead of volume.
	UMMC Mapper = "UMMC"
	// UTH is the TH-objective variant (§III: "adaptation ... trivial").
	UTH Mapper = "UTH"
	// TMAPG is LibTopoMap's greedy construction strategy (the library
	// ships six algorithms; the paper plots its best, recursive
	// bipartitioning = TMAP).
	TMAPG Mapper = "TMAPG"
	// UML is the multilevel WH mapper sketched in §III-B ("in a
	// multilevel fashion from coarser to finer levels"): a heavy-edge
	// matching hierarchy placed by BFS region growth and refined with
	// cluster swaps level by level, finishing with Algorithm 2.
	UML Mapper = "UML"
	// UMCA is the dynamic-routing congestion variant of §III-C's
	// closing remark: congestion refinement over the expected link
	// loads of an adaptively routed torus (Blue Gene style), instead
	// of the exact loads of static routing.
	UMCA Mapper = "UMCA"
	// HET is the hetero-aware greedy construction: supertask groups in
	// descending load order each take the unassigned node minimizing
	// the group's compute finish time (load over node speed), breaking
	// ties toward communication locality. Pair it with per-task loads,
	// per-node speeds and the "makespan" objective; on homogeneous
	// inputs it degrades to a plain locality greedy.
	HET Mapper = "HET"
	// GEOM is the geometric mapper: multi-jagged recursive coordinate
	// bisection of the supertask centroids (one weight-balanced cut
	// along the longest extent per level) married to a Hilbert-curve
	// order of the allocated nodes. Requires per-task coordinates on
	// the task graph (TaskGraph.SetCoords).
	GEOM Mapper = "GEOM"
	// SFCM is the pure space-filling-curve mapper: supertask centroids
	// in Hilbert order onto allocated nodes in Hilbert order — the
	// SFC-to-SFC placement geometric frameworks default to. Requires
	// per-task coordinates on the task graph.
	SFCM Mapper = "SFCM"
)

// Mappers returns the mappers evaluated in Figure 2, in order.
func Mappers() []Mapper {
	return mapperNames(registry.Figure2Names())
}

// RegisteredMappers returns every mapper known to the registry —
// built-ins first in figure order, then custom registrations — for
// CLI flag parsing and sweeps.
func RegisteredMappers() []Mapper {
	return mapperNames(registry.Names())
}

func mapperNames(names []string) []Mapper {
	out := make([]Mapper, len(names))
	for i, n := range names {
		out[i] = Mapper(n)
	}
	return out
}

// MapperSpec is a registered mapping algorithm: a name, capability
// flags, and the mapping function the Engine dispatches to.
type MapperSpec = registry.MapperSpec

// MapperInput is everything a registered mapper receives for one
// request: the coarse supertask graph (plus its message-count view
// when requested), the topology, the allocation and the seed.
type MapperInput = registry.Input

// MapperCaps declares what the Engine must prepare for a mapper:
// a message-count coarse graph, multipath route enumeration,
// SMP-style block grouping, or per-task coordinates on the task
// graph.
type MapperCaps = registry.Caps

// MapperCapsOf returns the declared capability requirements of a
// registered mapper; unknown names report no requirements.
func MapperCapsOf(name Mapper) MapperCaps {
	if s, ok := registry.Lookup(string(name)); ok {
		return s.Caps()
	}
	return MapperCaps{}
}

// NewMapper wraps a function as a MapperSpec for RegisterMapper.
func NewMapper(name string, caps MapperCaps, fn func(MapperInput) ([]int32, error)) MapperSpec {
	return registry.NewFunc(name, caps, fn)
}

// RegisterMapper plugs a custom mapping algorithm into the registry,
// making it dispatchable by name through Engine.RunSolve next to the
// built-ins. Duplicate names are rejected — a registered mapper can
// never be silently replaced.
func RegisterMapper(s MapperSpec) error { return registry.Register(s) }

// EvaluateMetrics computes the mapping metrics of an arbitrary
// placement of the fine task graph.
func EvaluateMetrics(tg *TaskGraph, topo Topology, pl *Placement) MapMetrics {
	return metrics.Compute(tg.G, topo, pl)
}

// WriteRankOrder emits a Cray-style MPICH_RANK_ORDER file realizing
// the placement on the allocation under SMP block filling
// (MPICH_RANK_REORDER_METHOD=3) — the channel through which a mapping
// reaches a real MPI launch. It fails when the placement cannot be
// realized by block filling (a node over capacity, or an interior
// node left partially filled).
func WriteRankOrder(w io.Writer, pl *Placement, a *Allocation) error {
	return rankfile.WriteRankOrder(w, pl, a)
}

// ReadRankOrder parses a rank-order file and validates that it is a
// permutation of 0..n-1.
func ReadRankOrder(r io.Reader) ([]int32, error) { return rankfile.ReadRankOrder(r) }

// PlacementFromRankOrder reconstructs the rank→node placement an MPI
// runtime realizes from a rank-order file on the given allocation —
// use it to evaluate the metrics of an existing rank file.
func PlacementFromRankOrder(order []int32, a *Allocation) (*Placement, error) {
	return rankfile.PlacementFromRankOrder(order, a)
}

// ReadNodeList parses an allocation from "node [procs]" lines, the
// form a launcher wrapper captures from the scheduler (§II-B). Node
// order is preserved as the scheduler's allocation order.
func ReadNodeList(r io.Reader) (*Allocation, error) { return rankfile.ReadNodeList(r) }
