package topomap

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hetero"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/parallel"
	"repro/internal/registry"
	"repro/internal/routecache"
	"repro/internal/taskgraph"
	"repro/internal/torus"
	"repro/internal/trace"
)

// Engine is the topology-generic mapping service: constructed once
// per (Topology, Allocation) pair, it precomputes the pairwise
// routing and distance state of the allocated nodes (torus
// dimension-ordered routes, fat-tree D-mod-k paths, dragonfly
// hierarchical minimal routes — whatever the topology's static
// routing produces) and serves any number of mapping requests against
// that cached state. An Engine is immutable after construction and
// safe for concurrent use. Every job is a Solve spec, served by four
// entry points: RunSolve runs one (and may be called from many
// goroutines), RunBatch fans a Solve slice out over a worker pool,
// RunRemap moves a finished result onto a changed allocation, and
// RunPortfolio races a candidate set toward a declared Objective.
//
// Mappers are dispatched through the pluggable registry: the fourteen
// built-ins plus anything added with RegisterMapper.
type Engine struct {
	topo    Topology
	view    *routecache.Table // route table of topo over alloc (identical answers)
	alloc   *Allocation
	caps    []int64 // per-allocated-node capacities, allocation order
	uniform bool

	// unitSpeeds is set when every node computes at the same rate: the
	// makespan-aware balance stage then only runs on request
	// (Solve.Balance).
	unitSpeeds bool

	// arena recycles per-solve scratch (BFS marks, gain buffers,
	// heaps, queues) across requests, so the steady state of a
	// resident engine allocates almost nothing per solve. It is
	// concurrency-safe; concurrent requests and the parallel subtasks
	// within one request share it.
	arena *arena.Arena
}

// NewEngine validates the allocation against the topology and builds
// the engine's cached routing state. Any Topology works: *Torus,
// *FatTree, *Dragonfly, or a user implementation.
func NewEngine(topo Topology, a *Allocation) (*Engine, error) {
	if topo == nil || a == nil {
		return nil, fmt.Errorf("topomap: NewEngine needs a topology and an allocation")
	}
	if err := a.Validate(topo); err != nil {
		return nil, err
	}
	view, err := routecache.New(topo, a.Nodes)
	if err != nil {
		return nil, err
	}
	return newEngineView(topo, view, a), nil
}

// newEngineView assembles an engine around the route table view of
// topo over a (built by NewEngine, patched by RunRemap). It performs
// no validation.
func newEngineView(topo Topology, view *routecache.Table, a *Allocation) *Engine {
	e := &Engine{
		topo:       topo,
		view:       view,
		alloc:      a,
		caps:       make([]int64, a.NumNodes()),
		uniform:    uniformCaps(a.ProcsPerNode),
		unitSpeeds: a.UnitSpeeds(),
		arena:      arena.New(),
	}
	for i, p := range a.ProcsPerNode {
		e.caps[i] = int64(p)
	}
	return e
}

// Topology returns the network the engine maps onto.
func (e *Engine) Topology() Topology { return e.topo }

// Allocation returns the node set the engine maps onto.
func (e *Engine) Allocation() *Allocation { return e.alloc }

// MapResult bundles the outcome of one mapping request.
type MapResult struct {
	// Mapper is the algorithm that produced the result.
	Mapper Mapper
	// GroupOf maps each task to its supertask/group (node index).
	GroupOf []int32
	// NodeOf maps each group to its network node.
	NodeOf []int32
	// Coarse is the aggregated supertask graph the mapper ran on.
	Coarse *Graph
	// Metrics holds the mapping metrics on the fine task graph.
	Metrics MapMetrics
	// FineWHGain and FineVolGain are the WH and volume improvements
	// of the fine-level refinement (Solve.FineRefine only).
	FineWHGain, FineVolGain int64
	// SimSeconds is the simulated communication time; meaningful only
	// when SimRan is set.
	SimSeconds float64
	// SimRan reports whether the communication-only simulator ran for
	// this solve (Solve.Sim was set) — zero simulated seconds on a
	// communication-free placement is a result, not an omission.
	SimRan bool
	// Trace is the solve's stage timeline, recorded only when
	// Solve.Trace was set (nil otherwise). Serialize it with
	// Trace.Stages().
	Trace *trace.Trace
}

// Placement returns the task→node composition for the simulator.
func (r *MapResult) Placement() *Placement {
	return &metrics.Placement{GroupOf: r.GroupOf, NodeOf: r.NodeOf}
}

// RunSolve executes the paper's full mapping pipeline (§III-A) for
// one job: group the tasks onto the allocated nodes (SMP-style blocks
// for block-grouping mappers, graph partitioning with capacity fix-up
// for the rest), aggregate to the coarse supertask graph, dispatch
// s.Mapper through the registry, repair heterogeneous capacity
// violations, and evaluate the metrics on the fine task graph — all
// against the engine's cached routing state.
//
// Cancellation reaches both between and inside the pipeline stages:
// the pipeline checks ctx at stage boundaries (grouping, mapper
// dispatch, refinement, metric evaluation), and the stages themselves
// — the bisection recursion, the greedy placement loop, every
// refinement pass — poll the context cooperatively and bail early, so
// cancellation latency is bounded by one refinement swap or bisection
// level, not a whole stage. It returns ctx.Err() as soon as the
// deadline expires or the caller cancels.
func (e *Engine) RunSolve(ctx context.Context, tasks *TaskGraph, s Solve) (*MapResult, error) {
	return e.runSolve(ctx, tasks, s, 0)
}

// runSolve implements the solve pipeline: the prefix (grouping and
// coarsening) followed by the rest. defaultWorkers is the
// parallelism a Solve with Workers == 0 gets: 0 means
// parallel.Workers() (a direct RunSolve uses the whole host), while
// RunBatch and RunPortfolio pass 1 (their pools already fan out
// across solves).
func (e *Engine) runSolve(ctx context.Context, tg *TaskGraph, s Solve, defaultWorkers int) (*MapResult, error) {
	j, cancel, err := e.newJob(ctx, tg, s, defaultWorkers, time.Now())
	if err != nil {
		return nil, err
	}
	defer cancel()
	p, err := e.runPrefix(j.ctx, tg, j.caps.BlockGrouping, s.Seed, j.ex, 0)
	if err != nil {
		return nil, err
	}
	return e.finishSolve(j, tg, p)
}

// solveJob is one validated Solve bound to its execution context: the
// context carrying the solve's budget, the registry dispatch target,
// and the worker pool, arena and trace its stages run on.
type solveJob struct {
	ctx  context.Context
	s    Solve
	spec registry.MapperSpec
	caps registry.Caps
	ex   *core.Exec
}

// newJob validates s against tg and the engine and binds it to an
// execution context. The solve's TimeoutMS budget counts from start
// and composes with the caller's ctx: whichever expires first cancels
// the pipeline. Enforcing it here, at the single pipeline entry, makes
// the budget uniform across RunSolve, RunBatch and portfolio
// candidates. The returned cancel releases the budget's timer.
func (e *Engine) newJob(ctx context.Context, tg *TaskGraph, s Solve, defaultWorkers int, start time.Time) (*solveJob, context.CancelFunc, error) {
	if err := checkTasks("request", tg); err != nil {
		return nil, nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	spec, err := e.mapperFor(tg, s.Mapper)
	if err != nil {
		return nil, nil, fmt.Errorf("topomap: %w", err)
	}
	cancel := context.CancelFunc(func() {})
	if s.TimeoutMS > 0 {
		ctx, cancel = context.WithDeadline(ctx, start.Add(time.Duration(s.TimeoutMS)*time.Millisecond))
	}
	workers := s.Workers
	if workers == 0 {
		workers = defaultWorkers
	}
	var tr *trace.Trace
	if s.Trace {
		tr = trace.New()
	}
	ex := &core.Exec{Par: parallel.NewGroup(ctx, workers), Arena: e.arena, Trace: tr}
	return &solveJob{ctx: ctx, s: s, spec: spec, caps: spec.Caps(), ex: ex}, cancel, nil
}

// checkTasks rejects a job of the given kind whose task graph is
// missing or whose task count K disagrees with its graph's vertex
// count: the pipeline sizes per-task vectors by one and indexes them by
// the other.
func checkTasks(job string, tg *TaskGraph) error {
	if tg == nil || tg.G == nil {
		return fmt.Errorf("topomap: %s carries no task graph", job)
	}
	if tg.K != tg.G.N() {
		return fmt.Errorf("topomap: task graph declares %d tasks but has %d vertices", tg.K, tg.G.N())
	}
	return nil
}

// mapperFor resolves mapper m, which Solve.Validate accepted, through
// the registry and checks that the engine's topology and the task
// graph tg supply what it needs: minimal-route enumeration for
// NeedsMultipath, per-task coordinates for NeedsCoords. Every entry
// point that names a mapper applies it before any work starts; the
// errors carry no package prefix, so each caller says which mapper of
// its job failed.
func (e *Engine) mapperFor(tg *TaskGraph, m Mapper) (registry.MapperSpec, error) {
	// Registrations are never removed, so a validated name resolves.
	spec, _ := registry.Lookup(string(m))
	caps := spec.Caps()
	if caps.NeedsMultipath {
		if _, ok := torus.As[torus.MultipathTopology](e.view); !ok {
			return nil, fmt.Errorf("mapper %s needs a topology with minimal-route enumeration", m)
		}
	}
	if caps.NeedsCoords && !tg.HasCoords() {
		return nil, fmt.Errorf("mapper %s needs per-task coordinates on the task graph", m)
	}
	return spec, nil
}

// prefix is the head of the pipeline every mapper shares (§III-A):
// the task graph's symmetrized view, the task→group vector and the
// coarse supertask graph aggregated over it. The rest of the pipeline
// mutates group in place (load repair, fine-level refinement) and the
// balance stage writes coarse.VW, so a prefix shared between solves is
// handed to each as a private copy of group, plus a private coarse.VW
// when the solve balances; sym is only ever read.
type prefix struct {
	sym    *Graph
	group  []int32
	coarse *Graph
}

// runPrefix symmetrizes the task graph, groups the tasks onto the
// allocated nodes — SMP-style blocks for block-grouping mappers, graph
// partitioning with capacity fix-up for the rest — and contracts the
// symmetrized graph over the grouping into the coarse graph, under the
// "group" and "coarsen" spans of ex's trace. sharedBy > 0 marks a
// prefix computed once for that many portfolio candidates; both spans
// then carry it as the shared_by counter.
func (e *Engine) runPrefix(ctx context.Context, tg *TaskGraph, blockGrouping bool, seed int64, ex *core.Exec, sharedBy int) (prefix, error) {
	if tg.K > e.alloc.TotalProcs() {
		return prefix{}, fmt.Errorf("topomap: %d tasks exceed %d allocated processors", tg.K, e.alloc.TotalProcs())
	}
	if err := ctx.Err(); err != nil {
		return prefix{}, err
	}
	sp := ex.StartSpan("group")
	sp.SetWorkers(ex.Par.NumWorkers())
	sym := tg.G.Symmetrize(e.arena)
	var group []int32
	var err error
	if blockGrouping {
		group, err = taskgraph.GroupBlocks(tg.K, e.caps)
	} else {
		group, err = taskgraph.GroupTasks(sym, e.caps, seed, ex.Par, e.arena, ex.Trace)
	}
	sp.Add("groups", int64(e.alloc.NumNodes()))
	if sharedBy > 0 {
		sp.Add("shared_by", int64(sharedBy))
	}
	sp.End()
	if err != nil {
		return prefix{}, err
	}
	if err := ctx.Err(); err != nil {
		return prefix{}, err
	}
	sp = ex.StartSpan("coarsen")
	coarse := graph.Contract(sym, group, e.alloc.NumNodes(), e.arena)
	sp.Add("coarse_vertices", int64(coarse.N()))
	sp.Add("coarse_edges", int64(coarse.M()))
	if sharedBy > 0 {
		sp.Add("shared_by", int64(sharedBy))
	}
	sp.End()
	return prefix{sym: sym, group: group, coarse: coarse}, nil
}

// balances reports whether a solve of s runs the makespan-aware load
// repair: whenever the allocation declares non-unit speeds, or on
// request (Solve.Balance) for loads-only jobs; block-grouping mappers
// pin tasks to rank blocks and are exempt, like capacity repair.
func (e *Engine) balances(caps registry.Caps, s Solve) bool {
	return !caps.BlockGrouping && (s.Balance || !e.unitSpeeds)
}

// finishSolve runs the rest of the pipeline on a prefix the job owns:
// dispatch the mapper and the optional WH pass, then finishPlacement.
func (e *Engine) finishSolve(j *solveJob, tg *TaskGraph, p prefix) (*MapResult, error) {
	ctx, s, caps, ex := j.ctx, j.s, j.caps, j.ex
	group, coarse := p.group, p.coarse
	poolWorkers := ex.Par.NumWorkers()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The mapper's derived inputs (message graph, centroids) are built
	// per mapper inside the map span; they are not part of the prefix.
	sp := ex.StartSpan("map")
	sp.SetWorkers(poolWorkers)
	in := registry.Input{Coarse: coarse, Topo: e.view, Alloc: e.alloc, Seed: s.Seed, Exec: ex}
	if caps.NeedsMessageGraph {
		in.Msg = taskgraph.CoarseMessageGraph(e.arena, tg, group, e.alloc.NumNodes())
	}
	if caps.NeedsCoords {
		in.Coords, in.Dim = groupCentroids(tg, group, e.alloc.NumNodes())
	}
	nodeOf, err := j.spec.Map(in)
	sp.End()
	if err != nil {
		return nil, err
	}
	if err := e.checkPlacement(nodeOf, coarse.N()); err != nil {
		return nil, fmt.Errorf("topomap: mapper %s: %w", s.Mapper, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The optional extra WH pass runs before the capacity repair:
	// RefineWH swaps whole groups between nodes without weighing
	// their sizes, so it must never be the last placement-mutating
	// step on a heterogeneous allocation.
	if s.Refine {
		sp = ex.StartSpan("refine_wh")
		sp.SetWorkers(poolWorkers)
		core.RefineWH(coarse, e.view, nodeOf, core.RefineOptions{Exec: ex})
		sp.End()
	}
	return e.finishPlacement(j, tg, p, nodeOf)
}

// ErrMapperPlacement marks a solve whose mapper returned a placement
// the later stages cannot hold: too few or too many groups, a group on
// a node outside the allocation, or two groups on one node. The fault
// is the mapper's, not the request's; the error wrapping it names the
// mapper and what is wrong.
var ErrMapperPlacement = errors.New("invalid placement")

// checkPlacement rejects a mapper's placement the later stages cannot
// hold: they keep a placement as allocation indices and assume one
// group per node, so every group needs an allocated node of its own.
// Every rejection wraps ErrMapperPlacement.
func (e *Engine) checkPlacement(nodeOf []int32, groups int) error {
	if len(nodeOf) != groups {
		return fmt.Errorf("%w: placed %d groups, want %d", ErrMapperPlacement, len(nodeOf), groups)
	}
	// owner[l] is one more than the group on allocation index l, 0
	// while l is free.
	owner := e.arena.Int32s(e.view.Len())
	defer e.arena.PutInt32s(owner)
	for g, m := range nodeOf {
		l := e.view.Local(m)
		if l < 0 {
			return fmt.Errorf("%w: placed group %d on node %d, which is not allocated", ErrMapperPlacement, g, m)
		}
		if owner[l] > 0 {
			return fmt.Errorf("%w: placed groups %d and %d on node %d", ErrMapperPlacement, owner[l]-1, g, m)
		}
		owner[l] = int32(g) + 1
	}
	return nil
}

// finishPlacement is the tail every placement ends on, a cold solve's
// and a warm remap's alike: capacity and load repair, fine-level
// refinement (on p.sym), metrics and the optional simulation. The
// result names j.s.Mapper.
func (e *Engine) finishPlacement(j *solveJob, tg *TaskGraph, p prefix, nodeOf []int32) (*MapResult, error) {
	ctx, s, caps, ex := j.ctx, j.s, j.caps, j.ex
	group, coarse := p.group, p.coarse
	poolWorkers := ex.Par.NumWorkers()
	// Heterogeneous capacities (§III-A): the mappers optimize locality
	// one-to-one; when node capacities are non-uniform a heavy group
	// can land on a small node, so repair any violations with
	// weight-aware swaps (a no-op on uniform allocations).
	if !caps.BlockGrouping && !e.uniform {
		sp := ex.StartSpan("repair")
		weight := e.arena.Int64s(coarse.N())
		for _, g := range group {
			weight[g]++
		}
		moves := core.RepairCapacities(coarse, e.view, nodeOf, weight, e.caps)
		e.arena.PutInt64s(weight)
		sp.Add("repair_moves", int64(moves))
		sp.End()
	}
	// The balance stage and the makespan read the speed and capacity
	// of each group's node; no later stage moves a group between nodes.
	balance := e.balances(caps, s)
	var speed []float64
	var capacity []int64
	if balance || !e.unitSpeeds {
		speed, capacity = make([]float64, len(nodeOf)), make([]int64, len(nodeOf))
		for g, m := range nodeOf {
			i := e.view.Local(m)
			speed[g], capacity[g] = e.alloc.Speed(int(i)), e.caps[i]
		}
	}
	// Makespan-aware load repair (heterogeneous processors): migrate
	// the costliest tasks off the bottleneck node — per-task loads over
	// per-node speeds — onto the cheapest feasible node.
	if balance {
		sp := ex.StartSpan("balance")
		moves := hetero.RepairLoad(tg.G, coarse, group, speed, capacity)
		sp.Add("balance_moves", int64(moves))
		sp.End()
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := &MapResult{Mapper: s.Mapper, GroupOf: group, NodeOf: nodeOf, Coarse: coarse, Trace: ex.Trace}
	if s.FineRefine {
		sp := ex.StartSpan("refine_fine")
		sp.SetWorkers(poolWorkers)
		res.FineWHGain, res.FineVolGain = core.RefineWHFine(p.sym, e.view, group, nodeOf, core.RefineOptions{Exec: ex})
		sp.End()
	}
	pl := &metrics.Placement{GroupOf: group, NodeOf: nodeOf}
	sp := ex.StartSpan("metrics")
	sp.SetWorkers(poolWorkers)
	res.Metrics = metrics.ComputePar(tg.G, e.view, pl, ex.Par)
	// ComputePar fills the unit-speed makespan; a heterogeneous
	// allocation overwrites it with the speed-aware finish times.
	if !e.unitSpeeds {
		res.Metrics.Makespan, res.Metrics.LoadImbalance = metrics.LoadSummary(tg.G, pl, speed)
	}
	sp.End()
	if s.Sim != nil {
		sp = ex.StartSpan("sim")
		res.SimSeconds = netsim.CommOnly(tg.G, e.view, pl, s.Sim.BytesPerUnit, s.Sim.Params).Seconds
		res.SimRan = true
		sp.End()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// groupCentroids reduces the task coordinates to one point per
// supertask group: the load-weighted mean of the member tasks'
// coordinates (unit weights when the graph carries no loads). The
// geometric mappers place these centroids instead of raw tasks, so
// they see the same coarse problem every other mapper does.
func groupCentroids(tg *TaskGraph, group []int32, numGroups int) ([]float64, int) {
	dim := tg.Dim
	cent := make([]float64, numGroups*dim)
	wsum := make([]float64, numGroups)
	for v := 0; v < tg.K; v++ {
		g := int(group[v])
		w := float64(tg.G.VertexWeight(v))
		wsum[g] += w
		c := tg.Coord(v)
		for d := 0; d < dim; d++ {
			cent[g*dim+d] += w * c[d]
		}
	}
	for g := 0; g < numGroups; g++ {
		if wsum[g] > 0 {
			for d := 0; d < dim; d++ {
				cent[g*dim+d] /= wsum[g]
			}
		}
	}
	return cent, dim
}

// RunBatch runs every solve against tasks on a pool of workers
// (workers <= 0 means GOMAXPROCS), under ctx (see RunSolve), and
// returns the results by solve index. Each solve defaults to one
// worker: the pool already fans out across solves, so per-solve
// parallelism on top would oversubscribe the host; Solve.Workers
// overrides. Results are deterministic: the same solves produce the
// same placements regardless of worker count or scheduling. Every
// solve is validated (see Solve.Validate) before any starts, and an
// invalid one fails the batch with nil results. On a solve's error
// the first failure (lowest solve index, as a serial loop would hit
// it) is returned; entries for solves that completed are still
// filled.
func (e *Engine) RunBatch(ctx context.Context, tasks *TaskGraph, solves []Solve, workers int) ([]*MapResult, error) {
	for i, s := range solves {
		if err := s.check(); err != nil {
			return nil, fmt.Errorf("topomap: request %d: %w", i, err)
		}
	}
	results := make([]*MapResult, len(solves))
	err := parallel.ForEach(len(solves), workers, func(i int) error {
		res, err := e.runSolve(ctx, tasks, solves[i], 1)
		if err != nil {
			return fmt.Errorf("topomap: request %d (%s): %w", i, solves[i].Mapper, err)
		}
		results[i] = res
		return nil
	})
	return results, err
}

// Evaluate computes the mapping metrics of an arbitrary placement
// through the engine's cached routing state (same answers as
// EvaluateMetrics, faster on repeated calls).
func (e *Engine) Evaluate(tg *TaskGraph, pl *Placement) MapMetrics {
	return metrics.Compute(tg.G, e.view, pl)
}

// uniformCaps reports whether every allocated node has the same
// processor capacity (vacuously true for empty allocations).
func uniformCaps(procs []int) bool {
	if len(procs) == 0 {
		return true
	}
	for _, p := range procs[1:] {
		if p != procs[0] {
			return false
		}
	}
	return true
}
