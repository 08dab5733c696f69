// Package trace records the stage-level timeline of one solve: named
// spans with wall time, the worker count they ran at, and per-stage
// counters (coarsening levels, bisection forks, refinement passes and
// swaps, candidates scored, route pairs reused). It is the
// measurement substrate behind Solve{Trace: true}, cmd/mapper -trace
// and mapd's per-stage latency histograms.
//
// The whole API is nil-safe and zero-overhead when disabled: a nil
// *Trace returns a nil *Span from Start, and every method on a nil
// receiver is an immediate no-op, so the pipeline threads one pointer
// through core.Exec and pays nothing unless a request asked to be
// traced. Tracing never influences an algorithmic decision — a traced
// and an untraced solve produce byte-identical mappings.
//
// Concurrency: spans are started and ended by the solve's serial
// orchestration (the pipeline stages run one after another), but
// counters may be added from the parallel workers inside a stage
// (bisection subtrees, scoring fan-outs); all mutation is guarded by
// one mutex, which the stage-boundary call sites keep off every hot
// inner loop — internal/ds and internal/graph must never import this
// package (enforced by `make check`).
package trace

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"time"
)

// Trace is the recorded timeline of one solve.
type Trace struct {
	mu    sync.Mutex
	start time.Time
	spans []*Span
	cur   *Span // innermost un-ended span; Add attaches counters here
}

// Span is one named stage of the timeline. Fields are written through
// the owning Trace's mutex and read via Stages snapshots.
type Span struct {
	tr       *Trace
	name     string
	workers  int
	start    time.Time
	dur      time.Duration
	ended    bool
	counters map[string]int64
}

// New returns an empty trace whose clock starts now.
func New() *Trace {
	return &Trace{start: time.Now()}
}

// Start opens a named span and makes it the attachment target for
// Add/Max until End. Nil-safe: a nil trace returns a nil span.
func (t *Trace) Start(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{tr: t, name: name, start: time.Now()}
	t.spans = append(t.spans, s)
	t.cur = s
	return s
}

// Clone returns an independent copy of t — the same clock start, every
// span with its duration, workers and counters — that records further
// spans on its own. A portfolio hands one shared prefix's timeline to
// each traced candidate that reused it this way. Nil-safe: a nil trace
// clones to nil.
func (t *Trace) Clone() *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := &Trace{start: t.start, spans: make([]*Span, len(t.spans))}
	for i, s := range t.spans {
		cp := *s
		cp.tr = c
		cp.counters = maps.Clone(s.counters)
		c.spans[i] = &cp
		if t.cur == s {
			c.cur = &cp
		}
	}
	return c
}

// End closes the span, fixing its duration. Nil-safe and idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	if s.tr.cur == s {
		s.tr.cur = nil
	}
}

// SetWorkers records the worker bound the span's stage ran at.
func (s *Span) SetWorkers(n int) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.workers = n
	s.tr.mu.Unlock()
}

// Add accumulates a named counter on the span.
func (s *Span) Add(name string, delta int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.addLocked(name, delta)
	s.tr.mu.Unlock()
}

func (s *Span) addLocked(name string, delta int64) {
	if s.counters == nil {
		s.counters = make(map[string]int64, 4)
	}
	s.counters[name] += delta
}

// Add accumulates a named counter on the currently open span — how
// the pipeline stages report totals (refinement swaps, candidates
// scored) without holding span handles: whichever stage is open owns
// the count. A trace with no open span drops the count.
func (t *Trace) Add(name string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.cur != nil {
		t.cur.addLocked(name, delta)
	}
	t.mu.Unlock()
}

// Max raises a named counter on the currently open span to v if v is
// larger — the merge for depth-style counters reported from parallel
// subtrees.
func (t *Trace) Max(name string, v int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if s := t.cur; s != nil {
		if s.counters == nil {
			s.counters = make(map[string]int64, 4)
		}
		if cur, ok := s.counters[name]; !ok || v > cur {
			s.counters[name] = v
		}
	}
	t.mu.Unlock()
}

// Stage is the serializable form of one span: start offset and
// duration in milliseconds, the worker bound, and the counters.
type Stage struct {
	Name     string           `json:"name"`
	StartMS  float64          `json:"start_ms"`
	DurMS    float64          `json:"dur_ms"`
	Workers  int              `json:"workers,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Stages snapshots the recorded spans in start order. Un-ended spans
// report their duration as of the call. Nil-safe: a nil trace has no
// stages.
func (t *Trace) Stages() []Stage {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Stage, len(t.spans))
	for i, s := range t.spans {
		d := s.dur
		if !s.ended {
			d = time.Since(s.start)
		}
		st := Stage{
			Name:    s.name,
			StartMS: float64(s.start.Sub(t.start)) / float64(time.Millisecond),
			DurMS:   float64(d) / float64(time.Millisecond),
			Workers: s.workers,
		}
		if len(s.counters) > 0 {
			st.Counters = make(map[string]int64, len(s.counters))
			for k, v := range s.counters {
				st.Counters[k] = v
			}
		}
		out[i] = st
	}
	return out
}

// TotalMS is the wall time from the trace's start to the end of its
// last ended span (or now, with spans still open).
func (t *Trace) TotalMS() float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var end time.Time
	for _, s := range t.spans {
		se := s.start.Add(s.dur)
		if !s.ended {
			se = time.Now()
		}
		if se.After(end) {
			end = se
		}
	}
	if end.IsZero() {
		return 0
	}
	return float64(end.Sub(t.start)) / float64(time.Millisecond)
}

// Format renders the timeline as an aligned text table — the shape
// cmd/mapper -trace prints:
//
//	group        3.1ms  41.2%  workers=8  bisections=63
//	map          2.2ms  29.3%  workers=8  wh_passes=4 wh_swaps=118
func Format(stages []Stage, totalMS float64) string {
	var b strings.Builder
	width := 4
	for _, st := range stages {
		if len(st.Name) > width {
			width = len(st.Name)
		}
	}
	for _, st := range stages {
		pct := 0.0
		if totalMS > 0 {
			pct = 100 * st.DurMS / totalMS
		}
		fmt.Fprintf(&b, "  %-*s %9.3fms %5.1f%%", width, st.Name, st.DurMS, pct)
		if st.Workers > 0 {
			fmt.Fprintf(&b, "  workers=%d", st.Workers)
		}
		if len(st.Counters) > 0 {
			keys := make([]string, 0, len(st.Counters))
			for k := range st.Counters {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, "  %s=%d", k, st.Counters[k])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
