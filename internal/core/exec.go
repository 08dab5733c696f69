package core

import (
	"repro/internal/arena"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// Exec is the execution context of one solve: the bounded fork-join
// group carrying intra-request parallelism and cooperative
// cancellation, and the scratch arena the solve borrows its
// node-sized buffers from. The Engine owns the arena and builds one
// Exec per request; the mapping algorithms thread it through their
// option structs. A nil *Exec (what tests and standalone callers
// pass) means "serial, fresh allocations, never cancelled" — every
// algorithm produces byte-identical results either way.
type Exec struct {
	// Par bounds the solve's worker goroutines and carries the
	// request context. Nil runs serial.
	Par *parallel.Group
	// Arena recycles scratch buffers across solves. Nil allocates
	// fresh.
	Arena *arena.Arena
	// Trace, when non-nil, records the solve's stage timeline and
	// per-stage counters (Solve{Trace: true}). Nil — the default — is
	// zero-overhead: every span/counter call below is an immediate
	// no-op. Tracing never changes a mapping decision.
	Trace *trace.Trace
}

// par returns the group, nil-safely.
func (e *Exec) par() *parallel.Group {
	if e == nil {
		return nil
	}
	return e.Par
}

// arenaOf returns the arena, nil-safely.
func (e *Exec) arenaOf() *arena.Arena {
	if e == nil {
		return nil
	}
	return e.Arena
}

// cancelled reports whether the solve's context died. Algorithms poll
// it at safe points (between swaps, passes and placements) and bail
// early with structurally valid state; the engine surfaces ctx.Err.
func (e *Exec) cancelled() bool {
	return e != nil && e.Par.Cancelled()
}

// StartSpan opens a named stage span on the solve's trace, nil-safe
// both ways (nil Exec, nil Trace). The engine wraps its pipeline
// stages with it; core algorithms report counters into whichever span
// is open via Count.
func (e *Exec) StartSpan(name string) *trace.Span {
	if e == nil {
		return nil
	}
	return e.Trace.Start(name)
}

// Count adds delta to a named counter of the currently open stage
// span (no-op untraced). Call it at stage boundaries — once per pass
// or batch, never inside a hot inner loop.
func (e *Exec) Count(name string, delta int64) {
	if e == nil {
		return
	}
	e.Trace.Add(name, delta)
}
