package parallel

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Group is the bounded fork-join pool behind one solve's intra-request
// parallelism. It owns workers-1 spare worker tokens (the calling
// goroutine is the first worker): Fork runs its second closure on a
// fresh goroutine when a token is free and inline otherwise, so a
// recursive pipeline — bisection subtrees, independent greedy runs,
// candidate scoring — never runs more than `workers` goroutines at
// once, regardless of recursion depth or fan-out.
//
// Determinism contract: a Group never decides *what* runs, only
// *where*. As long as forked closures touch disjoint state (or
// pre-assigned result slots) and draw randomness from their own
// seeded sources, the result is byte-identical for every worker count
// including 1. All the solve-pipeline callers are built that way.
//
// A panic on a pooled worker goroutine does not kill the process: the
// Group captures it and re-raises it on the goroutine that called Fork
// or ForEachIdx once every worker of that call is done, so whoever
// holds that goroutine can recover it with no worker left running.
//
// The Group also carries the request context for cooperative,
// in-solve cancellation: hot loops poll Cancelled at safe points
// (between refinement swaps, between bisection subtrees) and bail
// early, leaving state consistent; the pipeline then surfaces
// ctx.Err. A nil *Group is valid everywhere and means "serial, never
// cancelled".
type Group struct {
	tokens chan struct{}
	done   <-chan struct{}
	ctx    context.Context
}

// NewGroup returns a Group running at most workers goroutines
// (workers <= 0 means Workers()) under ctx. ctx may be nil for "no
// cancellation".
func NewGroup(ctx context.Context, workers int) *Group {
	if workers <= 0 {
		workers = Workers()
	}
	g := &Group{ctx: ctx}
	if ctx != nil {
		g.done = ctx.Done()
	}
	if workers > 1 {
		g.tokens = make(chan struct{}, workers-1)
		for i := 0; i < workers-1; i++ {
			g.tokens <- struct{}{}
		}
	}
	return g
}

// NumWorkers reports the group's worker bound (1 for nil or serial
// groups).
func (g *Group) NumWorkers() int {
	if g == nil || g.tokens == nil {
		return 1
	}
	return cap(g.tokens) + 1
}

// Cancelled reports whether the group's context is done. It is cheap
// enough for refinement inner loops.
func (g *Group) Cancelled() bool {
	if g == nil || g.done == nil {
		return false
	}
	select {
	case <-g.done:
		return true
	default:
		return false
	}
}

// Err returns the context error once the group is cancelled, nil
// otherwise.
func (g *Group) Err() error {
	if g == nil || g.ctx == nil {
		return nil
	}
	return g.ctx.Err()
}

// Fork runs a and b to completion, b on a pooled goroutine when a
// worker token is free and inline otherwise. Both closures observe
// every write made before Fork, and every write they make is visible
// after Fork returns. They must touch disjoint state.
func (g *Group) Fork(a, b func()) {
	if g == nil || g.tokens == nil {
		a()
		b()
		return
	}
	select {
	case <-g.tokens:
		var j join
		j.spawn(g, b)
		j.run(a)
		j.wait()
	default:
		a()
		b()
	}
}

// ForEachIdx invokes fn(i) for every i in [0,n), spreading the calls
// over the group's free workers and waiting for all of them. Callers
// keep determinism by writing results into slot i only.
func (g *Group) ForEachIdx(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if g == nil || g.tokens == nil || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// A shared atomic cursor hands out indices: helpers and the
	// caller all drain it, nobody races a hand-off, and — unlike a
	// buffered index channel — nothing n-sized is allocated in loops
	// the arena work elsewhere exists to de-allocate.
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var j join
	for spawned := 0; spawned < n-1; spawned++ {
		select {
		case <-g.tokens:
			j.spawn(g, work)
			continue
		default:
		}
		break
	}
	j.run(work)
	j.wait()
}

// join is one Fork or ForEachIdx call's wait for the workers it
// spawned, with the first panic raised on any goroutine of the call,
// the caller's own included, so the call re-raises it only once every
// worker is done.
type join struct {
	wg sync.WaitGroup
	mu sync.Mutex
	p  *workerPanic
}

// spawn runs fn on a new goroutine holding one of g's worker tokens,
// which it returns when done.
func (j *join) spawn(g *Group, fn func()) {
	j.wg.Add(1)
	go func() {
		defer j.wg.Done()
		defer func() { g.tokens <- struct{}{} }()
		defer j.capture()
		fn()
	}()
}

// run calls fn on the calling goroutine, capturing its panic.
func (j *join) run(fn func()) {
	defer j.capture()
	fn()
}

// capture, deferred on a goroutine of the call, records its panic
// instead of letting it unwind (or, on a pooled worker, end the
// process).
func (j *join) capture() {
	r := recover()
	if r == nil {
		return
	}
	p, ok := r.(*workerPanic)
	if !ok {
		p = &workerPanic{val: r, stack: debug.Stack()}
	}
	j.mu.Lock()
	if j.p == nil {
		j.p = p
	}
	j.mu.Unlock()
}

// wait waits for the spawned workers, then re-raises the captured
// panic, if any, on the calling goroutine.
func (j *join) wait() {
	j.wg.Wait()
	if j.p != nil {
		panic(j.p)
	}
}

// workerPanic is a panic of a Fork or ForEachIdx goroutine, re-raised
// on the calling goroutine after the wait. It prints as the original
// value; %+v adds the stack it was raised on.
type workerPanic struct {
	val   any
	stack []byte
}

func (p *workerPanic) Format(f fmt.State, verb rune) {
	fmt.Fprint(f, p.val)
	if f.Flag('+') {
		fmt.Fprintf(f, "\n\npanicked on:\n%s", p.stack)
	}
}
