// Package taskgraph builds MPI task communication graphs from a
// 1D row-wise partitioned sparse matrix (the paper's workload
// pipeline, §IV-A/§IV-B) and computes the partition-level
// communication metrics TV, TM, MSV, MSM. It also provides the
// task-to-node grouping step of §III-A: partitioning the task graph
// into |Va| groups with node capacities as target weights, fixed up
// to hard feasibility with an FM balance pass.
package taskgraph

import (
	"fmt"
	"math"

	"repro/internal/arena"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/trace"
)

// TaskGraph is a directed MPI task graph: vertex t sends w(t,u) units
// of data to vertex u (x-vector entries for SpMV workloads). G.VW
// holds per-task computation loads (nonzeros owned).
//
// Coords optionally carries per-task geometric coordinates (task-major
// flattened, Dim values per task, Dim ∈ {2,3}) for the geometric
// mappers. Absent coordinates are the canonical spelling: Coords nil,
// Dim 0 — the pre-coordinate code paths exactly.
type TaskGraph struct {
	G      *graph.Graph
	K      int       // number of tasks
	Coords []float64 // per-task coordinates, K*Dim long (nil = none)
	Dim    int       // coordinate dimensionality, 2 or 3 (0 = none)
}

// HasCoords reports whether the graph carries task coordinates.
func (t *TaskGraph) HasCoords() bool { return t.Dim > 0 && len(t.Coords) > 0 }

// SetCoords installs per-task coordinates (task-major flattened, dim
// values per task) after validating dimensionality, length and
// finiteness. A nil slice strips coordinates back to the canonical
// absent spelling.
func (t *TaskGraph) SetCoords(dim int, coords []float64) error {
	if coords == nil {
		t.Coords, t.Dim = nil, 0
		return nil
	}
	if dim != 2 && dim != 3 {
		return fmt.Errorf("taskgraph: coordinate dim %d, want 2 or 3", dim)
	}
	if len(coords) != t.K*dim {
		return fmt.Errorf("taskgraph: %d coordinate values for %d tasks at dim %d (want %d)", len(coords), t.K, dim, t.K*dim)
	}
	for i, c := range coords {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("taskgraph: coordinate %d of task %d is not finite", i%dim, i/dim)
		}
	}
	t.Coords, t.Dim = coords, dim
	return nil
}

// Coord returns task v's coordinate vector (a view into Coords).
func (t *TaskGraph) Coord(v int) []float64 {
	return t.Coords[v*t.Dim : (v+1)*t.Dim]
}

// Metrics are the partition communication metrics of §IV-A, in unit
// costs: total volume, total messages, maximum per-part send volume
// and maximum per-part sent messages.
type Metrics struct {
	TV, TM, MSV, MSM int64
}

// Build constructs the task graph of a k-part 1D row-wise SpMV on m:
// the owner of row/column j (part[j]) sends x_j to every other part
// that has a nonzero in column j. Edge weights count distinct x
// entries.
func Build(m *matrix.CSR, part []int32, k int) (*TaskGraph, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("taskgraph: matrix not square")
	}
	if len(part) != m.Rows {
		return nil, fmt.Errorf("taskgraph: part vector length %d, want %d", len(part), m.Rows)
	}
	for _, p := range part {
		if p < 0 || int(p) >= k {
			return nil, fmt.Errorf("taskgraph: part id %d out of [0,%d)", p, k)
		}
	}
	tr := m.Transpose()
	vol := make(map[int64]int64)
	stamp := make([]int32, k)
	for i := range stamp {
		stamp[i] = -1
	}
	for j := 0; j < m.Cols; j++ {
		q := part[j] // owner of x_j
		for _, i := range tr.Row(j) {
			p := part[i]
			if p == q || stamp[p] == int32(j) {
				continue
			}
			stamp[p] = int32(j)
			vol[int64(q)*int64(k)+int64(p)]++
		}
	}
	var us, vs []int32
	var ws []int64
	for key, w := range vol {
		us = append(us, int32(key/int64(k)))
		vs = append(vs, int32(key%int64(k)))
		ws = append(ws, w)
	}
	loads := make([]int64, k)
	for i := 0; i < m.Rows; i++ {
		loads[part[i]] += int64(m.RowNNZ(i))
	}
	g := graph.FromEdges(k, us, vs, ws, loads)
	return &TaskGraph{G: g, K: k}, nil
}

// PartitionMetrics computes TV/TM/MSV/MSM from the task graph.
func (t *TaskGraph) PartitionMetrics() Metrics {
	var m Metrics
	m.TM = int64(t.G.M())
	for v := 0; v < t.G.N(); v++ {
		var sv int64
		for _, w := range t.G.Weights(v) {
			sv += w
		}
		m.TV += sv
		if sv > m.MSV {
			m.MSV = sv
		}
		if d := int64(t.G.Degree(v)); d > m.MSM {
			m.MSM = d
		}
	}
	return m
}

// GroupBlocks groups tasks into consecutive-rank blocks matching the
// node capacities, exactly how an SMP-style default mapping fills
// nodes: group g takes capacities[g] consecutive task ids.
func GroupBlocks(nTasks int, capacities []int64) ([]int32, error) {
	group := make([]int32, nTasks)
	t := 0
	for gidx, c := range capacities {
		for i := int64(0); i < c && t < nTasks; i++ {
			group[t] = int32(gidx)
			t++
		}
	}
	if t != nTasks {
		return nil, fmt.Errorf("taskgraph: capacities sum below %d tasks", nTasks)
	}
	return group, nil
}

// GroupTasks partitions sym, the task graph's symmetrized view, into
// len(capacities) groups so that group g holds at most capacities[g]
// tasks (each task counts one processor slot), minimizing inter-group
// communication: the paper's "use METIS to partition Gt into |Va|
// nodes" plus the single FM balance fix (§III-A).
//
// Two candidates are produced — a multilevel partition of the task
// graph, and the consecutive-rank block grouping refined with k-way
// passes (recursive-bisection part ids are already locality-ordered,
// §IV-B, so blocks are a strong start) — and the one with the lower
// inter-group volume wins.
//
// The candidates run as forked subtasks on par (the multilevel
// partition additionally parallelizes its own bisection subtrees on
// the same pool), the partitioner borrows its scratch from ar, and tr
// — when tracing — receives the stage's counters (bisections,
// recursion depth, which candidate won). A nil group/arena/trace runs
// serial with fresh allocations, untraced; the winner — and therefore
// the grouping — is identical either way. sym is only read, so the
// caller can go on to coarsen over it.
func GroupTasks(sym *graph.Graph, capacities []int64, seed int64, par *parallel.Group, ar *arena.Arena, tr *trace.Trace) ([]int32, error) {
	// Unit vertex weights: a task occupies one processor. The
	// partitioner sees them through a shallow copy of sym.
	unit := make([]int64, sym.N())
	for i := range unit {
		unit[i] = 1
	}
	sym = &graph.Graph{Xadj: sym.Xadj, Adj: sym.Adj, EW: sym.EW, VW: unit}
	interVolume := func(group []int32) int64 {
		var vol int64
		for u := 0; u < sym.N(); u++ {
			for i := sym.Xadj[u]; i < sym.Xadj[u+1]; i++ {
				if group[u] != group[sym.Adj[i]] {
					vol += sym.EW[i]
				}
			}
		}
		return vol
	}

	// The two candidates are independent: they read the shared
	// symmetric graph and build their own part vectors.
	var (
		partitioned, blocks []int32
		perr, berr          error
	)
	par.Fork(
		func() {
			partitioned, perr = partition.PartitionTargets(sym, capacities, partition.Options{
				Seed:      seed,
				Imbalance: 0.02,
				Par:       par,
				Arena:     ar,
				Trace:     tr,
			})
			if perr == nil {
				perr = partition.FixToCapacities(sym, partitioned, capacities)
			}
		},
		func() {
			blocks, berr = GroupBlocks(sym.N(), capacities)
			if berr != nil {
				return
			}
			for pass := 0; pass < 4; pass++ {
				if par.Cancelled() {
					return
				}
				if partition.RefineKWayPass(sym, blocks, capacities) == 0 {
					break
				}
			}
		},
	)
	if perr != nil {
		return nil, perr
	}
	if berr != nil {
		return nil, berr
	}
	if err := par.Err(); err != nil {
		return nil, err
	}

	if interVolume(blocks) < interVolume(partitioned) {
		tr.Add("group_blocks_won", 1)
		return blocks, nil
	}
	return partitioned, nil
}

// CoarseMessageGraph aggregates the task graph over a grouping like
// graph.Contract over its symmetrization, but weights each coarse edge
// by the number of fine directed messages between the two groups (both
// directions summed), which is the load the message-congestion (MMC)
// refinement must see: all fine messages between a group pair follow
// the same static route. It contracts the symmetrization of the task
// graph's unit-weight view, in which every stored directed edge counts
// one, with staging scratch from ar (nil allocates fresh).
func CoarseMessageGraph(ar *arena.Arena, t *TaskGraph, group []int32, nGroups int) *graph.Graph {
	unit := &graph.Graph{Xadj: t.G.Xadj, Adj: t.G.Adj, VW: t.G.VW}
	return graph.Contract(unit.Symmetrize(ar), group, nGroups, ar)
}
