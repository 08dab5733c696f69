package topomap

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/remap"
	"repro/internal/routecache"
	"repro/internal/taskgraph"
	"repro/internal/trace"
)

// NodeCapacity names one node of an AllocationDelta together with its
// processor capacity.
type NodeCapacity struct {
	Node  int32 `json:"node"`
	Procs int   `json:"procs"`
}

// AllocationDelta is a serializable description of how an allocation
// changed: nodes the scheduler took away, nodes it handed over, and
// nodes whose usable capacity changed. A node may appear at most once
// across the three lists. Setting a node's capacity to zero removes
// it — the wire form of "this node still exists but you may not use
// it". The delta is the unit POST /v1/remap and cmd/mapper -remap
// carry; Apply defines its exact semantics.
type AllocationDelta struct {
	Remove      []int32        `json:"remove,omitempty"`
	Add         []NodeCapacity `json:"add,omitempty"`
	SetCapacity []NodeCapacity `json:"set_capacity,omitempty"`
}

// Empty reports whether the delta changes nothing.
func (d AllocationDelta) Empty() bool {
	return len(d.Remove) == 0 && len(d.Add) == 0 && len(d.SetCapacity) == 0
}

// Apply produces the post-delta allocation: removed and
// zero-capacity nodes leave, surviving nodes keep their allocation
// order (with updated capacities), added nodes append in Add order.
// It validates the delta against the previous allocation — removals
// and capacity changes must name allocated nodes, additions must name
// hosts of the topology not already allocated, no node may appear
// twice — and rejects deltas that change nothing or empty the
// allocation, so a remap request always has real work and a feasible
// target. The allocation it returns passes Validate.
func (d AllocationDelta) Apply(topo Topology, prev *Allocation) (*Allocation, error) {
	if d.Empty() {
		return nil, fmt.Errorf("topomap: empty allocation delta; a remap needs a change")
	}
	idx := make(map[int32]int, prev.NumNodes())
	for i, m := range prev.Nodes {
		idx[m] = i
	}
	touched := map[int32]bool{}
	touch := func(m int32) error {
		if touched[m] {
			return fmt.Errorf("topomap: delta names node %d twice", m)
		}
		touched[m] = true
		return nil
	}
	drop := map[int32]bool{}
	procs := append([]int(nil), prev.ProcsPerNode...)
	for _, m := range d.Remove {
		if err := touch(m); err != nil {
			return nil, err
		}
		if _, ok := idx[m]; !ok {
			return nil, fmt.Errorf("topomap: delta removes node %d, which is not allocated", m)
		}
		drop[m] = true
	}
	for _, nc := range d.SetCapacity {
		if err := touch(nc.Node); err != nil {
			return nil, err
		}
		i, ok := idx[nc.Node]
		if !ok {
			return nil, fmt.Errorf("topomap: delta sets capacity of node %d, which is not allocated", nc.Node)
		}
		if nc.Procs < 0 {
			return nil, fmt.Errorf("topomap: delta sets negative capacity %d on node %d", nc.Procs, nc.Node)
		}
		if nc.Procs == 0 {
			drop[nc.Node] = true
			continue
		}
		procs[i] = nc.Procs
	}
	next := &Allocation{}
	for i, m := range prev.Nodes {
		if drop[m] {
			continue
		}
		next.Nodes = append(next.Nodes, m)
		next.ProcsPerNode = append(next.ProcsPerNode, procs[i])
		next.Speeds = append(next.Speeds, prev.Speed(i))
	}
	for _, nc := range d.Add {
		if err := touch(nc.Node); err != nil {
			return nil, err
		}
		if _, ok := idx[nc.Node]; ok {
			return nil, fmt.Errorf("topomap: delta adds node %d, which is already allocated", nc.Node)
		}
		if nc.Node < 0 || int(nc.Node) >= topo.Nodes() {
			return nil, fmt.Errorf("topomap: delta adds node %d outside the topology", nc.Node)
		}
		if nc.Procs <= 0 {
			return nil, fmt.Errorf("topomap: delta adds node %d with capacity %d", nc.Node, nc.Procs)
		}
		next.Nodes = append(next.Nodes, nc.Node)
		next.ProcsPerNode = append(next.ProcsPerNode, nc.Procs)
		next.Speeds = append(next.Speeds, 1)
	}
	if next.NumNodes() == 0 {
		return nil, fmt.Errorf("topomap: delta empties the allocation")
	}
	// Surviving nodes keep their speed factors; added nodes default to
	// unit speed. A fully homogeneous result canonicalizes back to the
	// nil vector so fingerprints and wire bytes stay in the legacy form.
	next.CanonicalizeSpeeds()
	// The result must be an allocation NewEngine accepts: an added
	// switch vertex of a fat tree or dragonfly is rejected here, before
	// any route is built to it.
	if err := next.Validate(topo); err != nil {
		return nil, err
	}
	return next, nil
}

// DefaultFenceThreshold is the quality fence's default allowed
// relative objective regression of the warm path over the previous
// mapping: 5% before the engine falls back to a cold solve.
const DefaultFenceThreshold = 0.05

// RemapSpec is the declarative, serializable form of one remap job:
// the solve knobs the warm pipeline and any cold fallback share, the
// objective the quality fence scores, and the fence threshold.
type RemapSpec struct {
	// Solve configures the remap: Seed/Workers/FineRefine/Sim/
	// TimeoutMS apply to the warm pipeline, and the whole Solve is the
	// cold fallback's spec (Mapper defaults to the previous result's
	// mapper when empty; Refine is implied — the warm path always ends
	// in WH refinement).
	Solve Solve `json:"solve,omitempty"`
	// Objective is what the quality fence scores (zero value: WH).
	Objective Objective `json:"objective,omitempty"`
	// FenceThreshold is the allowed relative regression of the warm
	// result's objective over the previous mapping before the engine
	// falls back to a cold solve: 0 means DefaultFenceThreshold,
	// negative disables the fence entirely.
	FenceThreshold float64 `json:"fence_threshold,omitempty"`
}

// Validate checks the spec without an engine: a well-formed objective,
// a sim spec in Solve when the objective scores sim_seconds, and a
// Solve that would be valid as the cold fallback's spec — its mapper
// checked now, not when the fence trips, so a bad spec fails the same
// way whatever the warm path scores. RunRemap runs it first, and mapd
// before the remap takes a worker slot.
func (r RemapSpec) Validate() error {
	if err := r.Objective.Validate(); err != nil {
		return err
	}
	if r.Objective.NeedsSim() && r.Solve.Sim == nil {
		return fmt.Errorf("topomap: objective %s needs a sim spec in solve.sim", SimSecondsMetric)
	}
	fallback := r.Solve
	if fallback.Mapper == "" {
		// The fallback then reruns the previous result's mapper, which
		// its own solve validated.
		fallback.Mapper = DEF
	}
	if err := fallback.check(); err != nil {
		return fmt.Errorf("topomap: remap cold fallback: %w", err)
	}
	return nil
}

// RemapResult is the outcome of an incremental remap: the winning
// mapping on the post-delta allocation, the engine serving that
// allocation (route state patched, not rebuilt — reuse it for
// follow-on requests), and the warm-vs-cold accounting.
type RemapResult struct {
	// Result is the winning mapping in the new allocation's index
	// space.
	Result *MapResult
	// Engine serves the post-delta (topology, allocation) pair.
	Engine *Engine
	// Allocation is the post-delta allocation.
	Allocation *Allocation
	// Warm reports that the warm-started result won; false means the
	// fence fell back to a cold solve and the cold result won.
	Warm bool
	// FenceTripped reports that the warm result regressed past the
	// threshold and the cold fallback ran (the winner is still
	// whichever scored lower).
	FenceTripped bool
	// PrevScore, WarmScore and ColdScore are the objective values of
	// the previous mapping, the warm result, and the cold fallback
	// (ColdScore is meaningful only when FenceTripped).
	PrevScore, WarmScore, ColdScore float64
	// PairsReused of PairsTotal route-cache pairs survived the delta
	// verbatim.
	PairsReused, PairsTotal int
	// MigratedTasks counts the tasks the delta stranded (dead or
	// over-capacity nodes) and the greedy placement moved.
	MigratedTasks int
}

// RunRemap incrementally remaps a finished result onto a changed
// allocation: the per-pair route cache is patched in place (only
// pairs touching changed nodes recompute), tasks stranded on removed
// or shrunk nodes migrate via cheapest-feasible-node greedy
// placement, and WH — plus congestion refinement when the objective
// asks for a congestion metric — warm-starts from the patched
// placement instead of reconstructing from scratch. A quality fence
// guards the shortcut: when the warm result's objective regresses
// more than the spec's threshold over prev's score, a cold solve of
// spec.Solve runs and the better result wins. Like every engine
// entry point, the output is byte-identical at any worker count.
func (e *Engine) RunRemap(ctx context.Context, tasks *TaskGraph, prev *MapResult, delta AllocationDelta, spec RemapSpec) (*RemapResult, error) {
	if err := checkTasks("remap", tasks); err != nil {
		return nil, err
	}
	if prev == nil {
		return nil, fmt.Errorf("topomap: remap carries no previous result")
	}
	if len(prev.GroupOf) != tasks.K {
		return nil, fmt.Errorf("topomap: previous result places %d tasks, task graph has %d", len(prev.GroupOf), tasks.K)
	}
	if len(prev.NodeOf) != e.alloc.NumNodes() {
		return nil, fmt.Errorf("topomap: previous result uses %d nodes, engine's allocation has %d", len(prev.NodeOf), e.alloc.NumNodes())
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// The cold fallback's mapper must also suit the engine and the task
	// graph.
	if spec.Solve.Mapper != "" {
		if _, err := e.mapperFor(tasks, spec.Solve.Mapper); err != nil {
			return nil, fmt.Errorf("topomap: remap cold fallback: %w", err)
		}
	}
	if spec.Solve.TimeoutMS > 0 {
		// One budget covers the whole remap — warm path plus any cold
		// fallback — so the fence cannot double the caller's deadline.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(spec.Solve.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	prevScore, err := spec.Objective.Score(prev)
	if err != nil {
		return nil, fmt.Errorf("topomap: remap fence cannot score the previous result: %w", err)
	}

	next, err := delta.Apply(e.topo, e.alloc)
	if err != nil {
		return nil, err
	}
	if int64(tasks.K) > int64(next.TotalProcs()) {
		return nil, fmt.Errorf("topomap: %d tasks exceed %d processors after the delta", tasks.K, next.TotalProcs())
	}
	// The warm path's trace starts here: the route-cache patch is the
	// remap's first real stage, and its reuse counters are exactly what
	// an operator reads the trace for.
	var tr *trace.Trace
	if spec.Solve.Trace {
		tr = trace.New()
	}
	sp := tr.Start("route_patch")
	view, pstats, err := routecache.Patch(e.view, next.Nodes)
	sp.Add("pairs_reused", int64(pstats.Reused))
	sp.Add("pairs_total", int64(pstats.Total))
	sp.End()
	if err != nil {
		return nil, err
	}
	ne := newEngineView(e.topo, view, next)

	res := &RemapResult{
		Engine:      ne,
		Allocation:  next,
		PairsReused: pstats.Reused,
		PairsTotal:  pstats.Total,
		PrevScore:   prevScore,
	}
	warm, err := ne.warmRemap(ctx, tasks, prev, spec, tr)
	if err != nil {
		return nil, err
	}
	res.Result = warm.res
	res.MigratedTasks = warm.migrated
	res.WarmScore, err = spec.Objective.Score(warm.res)
	if err != nil {
		return nil, err
	}
	res.Warm = true

	threshold := spec.FenceThreshold
	if threshold == 0 {
		threshold = DefaultFenceThreshold
	}
	if threshold >= 0 && res.WarmScore > prevScore*(1+threshold) {
		res.FenceTripped = true
		coldSolve := spec.Solve
		coldSolve.TimeoutMS = 0 // ctx already carries the budget
		if coldSolve.Mapper == "" {
			coldSolve.Mapper = prev.Mapper
		}
		cold, err := ne.runSolve(ctx, tasks, coldSolve, 0)
		if err != nil {
			return nil, fmt.Errorf("topomap: remap cold fallback: %w", err)
		}
		res.ColdScore, err = spec.Objective.Score(cold)
		if err != nil {
			return nil, err
		}
		// The warm result wins ties: it is the cheaper path and the
		// smaller migration.
		if res.ColdScore < res.WarmScore {
			res.Result = cold
			res.Warm = false
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// warmResult bundles the warm pipeline's output.
type warmResult struct {
	res      *MapResult
	migrated int
}

// warmRemap runs the warm pipeline on the post-delta engine: patch
// the placement (migrating only stranded tasks), rebuild the coarse
// graph over the patched grouping, refine — WH always, plus the
// congestion pass the objective's first congestion metric selects —
// and finish on the cold solve's tail (finishPlacement), so repair,
// balance, fine refinement, metrics and simulation run exactly as in
// RunSolve. tr (nil untraced) continues the stage timeline RunRemap
// opened with the route-cache patch.
func (e *Engine) warmRemap(ctx context.Context, tg *TaskGraph, prev *MapResult, spec RemapSpec, tr *trace.Trace) (*warmResult, error) {
	ex := &core.Exec{Par: parallel.NewGroup(ctx, spec.Solve.Workers), Arena: e.arena, Trace: tr}
	poolWorkers := ex.Par.NumWorkers()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := ex.StartSpan("patch_placement")
	sym := tg.G.Symmetrize(e.arena)
	plan, err := remap.PatchPlacement(remap.Instance{
		Sym:        sym,
		Table:      e.view,
		OldGroupOf: prev.GroupOf,
		OldNodeOf:  prev.NodeOf,
		NewCaps:    e.caps,
	})
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.Add("migrated_tasks", int64(len(plan.Stranded)))
	sp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp = ex.StartSpan("coarsen")
	coarse := graph.Contract(sym, plan.GroupOf, e.alloc.NumNodes(), e.arena)
	sp.Add("coarse_vertices", int64(coarse.N()))
	sp.Add("coarse_edges", int64(coarse.M()))
	sp.End()
	nodeOf := plan.NodeOf
	sp = ex.StartSpan("refine_wh")
	sp.SetWorkers(poolWorkers)
	core.RefineWH(coarse, e.view, nodeOf, core.RefineOptions{Exec: ex})
	sp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if kind, ok := congestionKind(spec.Objective); ok {
		sp = ex.StartSpan("refine_congestion")
		sp.SetWorkers(poolWorkers)
		g := coarse
		if kind == core.MessageCongestion {
			g = taskgraph.CoarseMessageGraph(e.arena, tg, plan.GroupOf, e.alloc.NumNodes())
		}
		core.RefineCongestion(g, e.view, nodeOf, kind, core.RefineOptions{Exec: ex})
		sp.End()
	}
	// The patched grouping is not block-grouped, so the tail repairs
	// capacities on any non-uniform allocation and re-balances toward
	// the makespan whenever a cold partitioning solve would: after the
	// delta the load can be badly skewed (a fast node removed, its
	// tasks migrated wholesale). The result keeps prev's mapper name.
	s := spec.Solve
	s.Mapper = prev.Mapper
	j := &solveJob{ctx: ctx, s: s, ex: ex}
	res, err := e.finishPlacement(j, tg, prefix{sym: sym, group: plan.GroupOf, coarse: coarse}, nodeOf)
	if err != nil {
		return nil, err
	}
	return &warmResult{res: res, migrated: len(plan.Stranded)}, nil
}

// congestionKind selects the congestion-refinement pass the warm path
// runs from the objective: the first congestion metric among its
// terms wins — "mmc" asks for message congestion, "mc"/"amc"/"ac"
// for volume congestion. Objectives without a congestion term (WH,
// hops, sim time) skip the pass; WH refinement already ran.
func congestionKind(o Objective) (core.CongestionKind, bool) {
	ts, err := o.terms()
	if err != nil {
		return 0, false
	}
	for _, t := range ts {
		switch t.Metric {
		case "mmc":
			return core.MessageCongestion, true
		case "mc", "amc", "ac":
			return core.VolumeCongestion, true
		}
	}
	return 0, false
}
