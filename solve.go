package topomap

import (
	"fmt"

	"repro/internal/registry"
)

// Solve is the declarative, serializable core of one mapping job: the
// mapper to dispatch, the seed driving its randomized choices, and
// every per-request behaviour knob as a plain JSON-tagged field. A
// Solve fully determines the engine's behaviour for a task graph —
// two equal Solve values produce byte-identical results — which makes
// it the unit the mapd wire protocol, portfolio candidate lists and
// persisted job specs all share, and the one request shape every
// Engine entry point consumes.
type Solve struct {
	// Mapper names the algorithm, dispatched through the registry.
	Mapper Mapper `json:"mapper"`
	// Seed drives any randomized choice the mapper makes.
	Seed int64 `json:"seed,omitempty"`
	// Refine applies an extra WH swap-refinement pass (Algorithm 2)
	// to the mapper's output; the UWH family already ends with it.
	Refine bool `json:"refine,omitempty"`
	// FineRefine applies the §III-B fine-level refinement after
	// mapping; gains land in MapResult.FineWHGain / FineVolGain.
	FineRefine bool `json:"fine_refine,omitempty"`
	// TimeoutMS bounds this solve's wall-clock in milliseconds; the
	// pipeline bails cooperatively (see RunSolve) once the budget
	// expires and surfaces context.DeadlineExceeded. 0 means no
	// per-solve budget (the caller's ctx still governs); negative is
	// rejected. Inside RunPortfolio an over-budget candidate is marked
	// Skipped instead of failing the portfolio — the per-candidate
	// budget the wire protocol exposes.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Workers bounds the worker goroutines of this solve: the grouping
	// partitioner forks its bisection subtrees, the greedy mapper runs
	// its seeded attempts concurrently, and the refinement stages fan
	// candidate scoring out, all on one bounded pool. 0 means the
	// caller-dependent default: all CPUs for RunSolve and RunRemap, one
	// worker per solve inside RunBatch and per candidate inside
	// RunPortfolio (their pools already fan out); negative means all
	// CPUs everywhere. The result is byte-identical at any value; only
	// the wall-clock changes.
	Workers int `json:"workers,omitempty"`
	// Sim, when set, additionally runs the communication-only
	// simulator (§IV-C) on the finished mapping and stores the result
	// in MapResult.SimSeconds.
	Sim *SimSpec `json:"sim,omitempty"`
	// Trace records the solve's stage timeline — wall time, workers
	// and per-stage counters for grouping, coarsening, the mapper,
	// every refinement pass and metric evaluation — in
	// MapResult.Trace. Tracing never changes the mapping: a traced and
	// an untraced solve are byte-identical; disabled (the default) it
	// costs nothing.
	Trace bool `json:"trace,omitempty"`
	// Balance runs the makespan-aware load-repair stage after mapping:
	// the costliest tasks migrate off the bottleneck node (per-task
	// loads over per-node speeds) onto the cheapest feasible node. The
	// stage runs automatically whenever the allocation declares
	// non-unit speeds; Balance opts in for loads-only jobs, where
	// per-task costs exist but every node runs at unit speed.
	Balance bool `json:"balance,omitempty"`
}

// SimSpec configures the post-solve communication-only simulation of
// a Solve. BytesPerUnit scales task-graph volume units to bytes.
type SimSpec struct {
	BytesPerUnit float64   `json:"bytes_per_unit"`
	Params       SimParams `json:"params"`
}

// Validate checks what a Solve must satisfy on any engine and task
// graph: a registered mapper and a non-negative timeout. Every Engine
// entry point runs it before any work starts, and mapd runs it before
// a request takes a worker slot or builds an engine; the engine then
// checks the mapper against its topology and the task graph.
func (s Solve) Validate() error {
	if err := s.check(); err != nil {
		return fmt.Errorf("topomap: %w", err)
	}
	return nil
}

// check is Validate without the package prefix, for requests that say
// which of their solves failed.
func (s Solve) check() error {
	if s.TimeoutMS < 0 {
		return fmt.Errorf("negative timeout_ms %d", s.TimeoutMS)
	}
	if _, ok := registry.Lookup(string(s.Mapper)); !ok {
		return fmt.Errorf("unknown mapper %q", s.Mapper)
	}
	return nil
}
