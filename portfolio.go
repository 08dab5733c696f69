package topomap

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/registry"
	"repro/internal/torus"
	"repro/internal/trace"
)

// PortfolioRequest races a set of candidate Solves against one task
// graph and selects the winner by a declared Objective — the
// production shape of the paper's "the winning mapper varies by
// topology and graph" observation: instead of asking for an
// algorithm, the caller asks for an outcome and the engine tries the
// portfolio.
type PortfolioRequest struct {
	// Tasks is the task graph every candidate places.
	Tasks *TaskGraph
	// Candidates are the solves to race. Candidates must differ in
	// (mapper, seed) — duplicates are rejected up front. Empty means
	// "every registered mapper compatible with the engine's
	// topology", each at Seed.
	Candidates []Solve
	// Seed is the seed auto-expanded candidates run at (ignored when
	// Candidates is non-empty).
	Seed int64
	// Objective declares what the portfolio minimizes. The zero value
	// minimizes weighted hops.
	Objective Objective
	// Workers bounds the pool the candidates fan out on (0 = all
	// CPUs). Each candidate solves with one worker by default —
	// the portfolio pool already fans out — unless its Solve.Workers
	// says otherwise.
	Workers int
	// Sim is the default simulation spec applied to candidates
	// without their own; required (here or per candidate) when the
	// objective scores sim_seconds.
	Sim *SimSpec
}

// PortfolioEntry is one candidate's line on the leaderboard.
type PortfolioEntry struct {
	// Index is the candidate's position in the (expanded) candidate
	// list — the stable identity tie-breaks and reporting use.
	Index int
	// Solve is the candidate spec.
	Solve Solve
	// Score is the objective value (lower is better); meaningless
	// when Skipped.
	Score float64
	// Result is the candidate's full solve result; nil when Skipped.
	Result *MapResult
	// Skipped reports that the deadline expired before this
	// candidate finished; the portfolio returned the best of the
	// rest.
	Skipped bool
}

// PortfolioResult is the outcome of a portfolio solve: the winning
// candidate plus the full per-candidate leaderboard.
type PortfolioResult struct {
	// Winner is the candidate index of the winning solve.
	Winner int
	// Best is the winning result (same pointer as the winner's
	// leaderboard entry).
	Best *MapResult
	// Leaderboard lists every candidate: completed ones first in
	// ascending score order (ties broken by candidate index), then
	// deadline-skipped ones in index order.
	Leaderboard []PortfolioEntry
	// Skipped counts the candidates the deadline cut off.
	Skipped int
}

// CompatibleMappers returns the registered mappers the engine's
// topology can dispatch on any task graph, in registration order.
// Mappers requiring multipath route enumeration are filtered out on
// topologies that cannot provide it, and mappers requiring per-task
// coordinates are always filtered out — the engine alone cannot
// promise a coordinate-carrying graph; see CompatibleMappersFor.
func (e *Engine) CompatibleMappers() []Mapper {
	return e.compatibleMappers(false)
}

// CompatibleMappersFor is CompatibleMappers specialized to one task
// graph — the candidate set a PortfolioRequest with no explicit
// Candidates expands to. When tasks carries per-task coordinates the
// geometric mappers join the set; coordinate-free graphs keep the
// CompatibleMappers set exactly.
func (e *Engine) CompatibleMappersFor(tasks *TaskGraph) []Mapper {
	return e.compatibleMappers(tasks != nil && tasks.HasCoords())
}

func (e *Engine) compatibleMappers(hasCoords bool) []Mapper {
	_, multipath := torus.MultipathOf(e.view)
	var out []Mapper
	for _, info := range registry.List() {
		if info.Caps.NeedsMultipath && !multipath {
			continue
		}
		if info.Caps.NeedsCoords && !hasCoords {
			continue
		}
		out = append(out, Mapper(info.Name))
	}
	return out
}

// portfolioCandidates expands, defaults and validates the candidate
// set of req: explicit candidates checked against the registry and
// the topology, or all compatible mappers at req.Seed; duplicate
// (mapper, seed) pairs rejected; req.Sim applied to candidates
// without their own; a sim-scoring objective required to have one
// everywhere.
func (e *Engine) portfolioCandidates(req PortfolioRequest) ([]Solve, error) {
	cands := append([]Solve(nil), req.Candidates...)
	if len(cands) == 0 {
		for _, mp := range e.CompatibleMappersFor(req.Tasks) {
			cands = append(cands, Solve{Mapper: mp, Seed: req.Seed})
		}
		if len(cands) == 0 {
			return nil, fmt.Errorf("topomap: portfolio found no registered mapper compatible with the topology")
		}
	}
	type identity struct {
		mapper Mapper
		seed   int64
	}
	seen := map[identity]int{}
	for i := range cands {
		c := &cands[i]
		if _, err := e.mapperFor(req.Tasks, c.Mapper); err != nil {
			return nil, fmt.Errorf("topomap: portfolio candidate %d: %w", i, err)
		}
		if c.TimeoutMS < 0 {
			return nil, fmt.Errorf("topomap: portfolio candidate %d (%s): negative timeout_ms %d", i, c.Mapper, c.TimeoutMS)
		}
		id := identity{c.Mapper, c.Seed}
		if prev, dup := seen[id]; dup {
			return nil, fmt.Errorf("topomap: portfolio candidates %d and %d duplicate (mapper %s, seed %d); candidates must differ in mapper or seed", prev, i, c.Mapper, c.Seed)
		}
		seen[id] = i
		if c.Sim == nil {
			c.Sim = req.Sim
		}
		if req.Objective.NeedsSim() && c.Sim == nil {
			return nil, fmt.Errorf("topomap: objective %s needs a sim spec, candidate %d (%s) has none", SimSecondsMetric, i, c.Mapper)
		}
	}
	return cands, nil
}

// RunPortfolio fans the candidate set out across a bounded worker
// pool, scores every finished result against the objective, and
// returns the winner plus the full leaderboard. Selection is
// deterministic at any worker count: scores are computed after the
// fan-out and sorted with a stable tie-break on candidate index.
// Cancellation is cooperative — when the deadline expires, candidates
// still solving bail at their next polling point, and the portfolio
// returns the best of what completed (with the cut-off candidates
// marked Skipped) instead of failing; only a deadline that beats
// every candidate surfaces ctx.Err. Any non-cancellation solve
// failure fails the whole portfolio, lowest candidate index first.
//
// The race partitions once per shared seed: when two or more
// candidates that partition (every mapper but the block-grouping ones
// such as DEF) run at one seed, their grouping and coarsening are
// computed once on the whole pool before the fan-out, and each of them
// finishes on that prefix. Every result is byte-identical to a
// standalone RunSolve of its candidate. A sharing candidate's
// TimeoutMS counts from the start of the shared prefix, which itself
// runs under ctx only.
func (e *Engine) RunPortfolio(ctx context.Context, req PortfolioRequest) (*PortfolioResult, error) {
	if err := checkTasks("portfolio", req.Tasks); err != nil {
		return nil, err
	}
	if err := req.Objective.Validate(); err != nil {
		return nil, err
	}
	cands, err := e.portfolioCandidates(req)
	if err != nil {
		return nil, err
	}

	results := make([]*MapResult, len(cands))
	errs := make([]error, len(cands))
	grp := parallel.NewGroup(ctx, req.Workers)
	shared := e.sharePrefixes(ctx, grp, req.Tasks, cands)
	grp.ForEachIdx(len(cands), func(i int) {
		// One worker per candidate by default: the portfolio pool is
		// the fan-out. Solve.Workers oversubscribes deliberately.
		if sh := shared[i]; sh != nil {
			results[i], errs[i] = e.solveShared(ctx, req.Tasks, cands[i], sh)
		} else {
			results[i], errs[i] = e.runSolve(ctx, req.Tasks, cands[i], 1)
		}
	})

	var entries, skipped []PortfolioEntry
	for i, res := range results {
		switch {
		case errs[i] == nil:
			score, err := req.Objective.Score(res)
			if err != nil {
				return nil, fmt.Errorf("topomap: portfolio candidate %d (%s): %w", i, cands[i].Mapper, err)
			}
			entries = append(entries, PortfolioEntry{Index: i, Solve: cands[i], Score: score, Result: res})
		case errors.Is(errs[i], context.Canceled) || errors.Is(errs[i], context.DeadlineExceeded):
			skipped = append(skipped, PortfolioEntry{Index: i, Solve: cands[i], Skipped: true})
		default:
			return nil, fmt.Errorf("topomap: portfolio candidate %d (%s): %w", i, cands[i].Mapper, errs[i])
		}
	}
	if len(entries) == 0 {
		// Nothing finished: the deadline beat every candidate.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("topomap: portfolio completed no candidates")
	}
	sort.SliceStable(entries, func(a, b int) bool {
		if entries[a].Score != entries[b].Score {
			return entries[a].Score < entries[b].Score
		}
		return entries[a].Index < entries[b].Index
	})
	return &PortfolioResult{
		Winner:      entries[0].Index,
		Best:        entries[0].Result,
		Leaderboard: append(entries, skipped...),
		Skipped:     len(skipped),
	}, nil
}

// sharedPrefix is one grouping+coarsening computed for every
// partitioning candidate at one seed.
type sharedPrefix struct {
	prefix
	seed   int64
	users  int          // candidates finishing on this prefix
	traced bool         // some user traces; the prefix then records spans
	start  time.Time    // the users' TimeoutMS budgets count from here
	tr     *trace.Trace // the group and coarsen spans, when traced
	err    error
}

// sharePrefixes computes, before the fan-out, one prefix for each seed
// used by two or more candidates whose mapper partitions the task
// graph, and returns each candidate's shared prefix (nil: the
// candidate groups on its own, as a standalone solve would). The
// prefixes run on the race's pool, so their bisections fork across
// every worker; the partition is the same at any worker count.
func (e *Engine) sharePrefixes(ctx context.Context, grp *parallel.Group, tg *TaskGraph, cands []Solve) []*sharedPrefix {
	of := make([]*sharedPrefix, len(cands))
	bySeed := map[int64]*sharedPrefix{}
	var order []*sharedPrefix
	for i, c := range cands {
		// Candidates were validated by portfolioCandidates.
		if spec, _ := registry.Lookup(string(c.Mapper)); spec.Caps().BlockGrouping {
			continue
		}
		sh := bySeed[c.Seed]
		if sh == nil {
			sh = &sharedPrefix{seed: c.Seed}
			bySeed[c.Seed] = sh
			order = append(order, sh)
		}
		sh.users++
		sh.traced = sh.traced || c.Trace
		of[i] = sh
	}
	for i, sh := range of {
		if sh != nil && sh.users < 2 {
			of[i] = nil
		}
	}
	var run []*sharedPrefix
	for _, sh := range order {
		if sh.users >= 2 {
			run = append(run, sh)
		}
	}
	grp.ForEachIdx(len(run), func(k int) {
		sh := run[k]
		sh.start = time.Now()
		if sh.traced {
			sh.tr = trace.New()
		}
		ex := &core.Exec{Par: grp, Arena: e.arena, Trace: sh.tr}
		sh.prefix, sh.err = e.runPrefix(ctx, tg, false, sh.seed, ex, sh.users)
	})
	return of
}

// solveShared finishes candidate s on its shared prefix. The candidate
// owns a private copy of the group vector, and of coarse.VW when it
// balances; the rest of the prefix is shared read-only. Its
// trace, when asked for, starts with the prefix's spans.
func (e *Engine) solveShared(ctx context.Context, tg *TaskGraph, s Solve, sh *sharedPrefix) (*MapResult, error) {
	if sh.err != nil {
		return nil, sh.err
	}
	j, cancel, err := e.newJob(ctx, tg, s, 1, sh.start)
	if err != nil {
		return nil, err
	}
	defer cancel()
	if j.ex.Trace != nil {
		j.ex.Trace = sh.tr.Clone()
	}
	p := prefix{sym: sh.sym, group: slices.Clone(sh.group), coarse: sh.coarse}
	if e.balances(j.caps, s) {
		c := *p.coarse
		c.VW = slices.Clone(c.VW)
		p.coarse = &c
	}
	return e.finishSolve(j, tg, p)
}
