package parallel

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestGroupForkRunsBoth: both closures run exactly once at every
// worker count, including the nil group.
func TestGroupForkRunsBoth(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		g := NewGroup(context.Background(), workers)
		var a, b atomic.Int64
		g.Fork(func() { a.Add(1) }, func() { b.Add(1) })
		if a.Load() != 1 || b.Load() != 1 {
			t.Fatalf("workers=%d: ran a=%d b=%d", workers, a.Load(), b.Load())
		}
		if got := g.NumWorkers(); got != workers {
			t.Fatalf("NumWorkers = %d, want %d", got, workers)
		}
	}
	var nilG *Group
	ran := 0
	nilG.Fork(func() { ran++ }, func() { ran++ })
	if ran != 2 {
		t.Fatalf("nil group ran %d closures", ran)
	}
	if nilG.NumWorkers() != 1 || nilG.Cancelled() || nilG.Err() != nil {
		t.Fatal("nil group must be serial and never cancelled")
	}
}

// TestGroupBounded: deep recursive forking never exceeds the worker
// bound.
func TestGroupBounded(t *testing.T) {
	const workers = 4
	g := NewGroup(context.Background(), workers)
	var active, peak atomic.Int64
	var recurse func(depth int)
	recurse = func(depth int) {
		if depth == 0 {
			// Leaf work: at most one leaf runs per goroutine at a
			// time, so the peak counts live goroutines.
			cur := active.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			for i := 0; i < 1000; i++ {
				_ = i * i
			}
			active.Add(-1)
			return
		}
		g.Fork(func() { recurse(depth - 1) }, func() { recurse(depth - 1) })
	}
	recurse(8)
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

// TestGroupDeterministicSlots: ForEachIdx fills result slots
// identically at every worker count.
func TestGroupDeterministicSlots(t *testing.T) {
	const n = 200
	want := make([]int, n)
	NewGroup(context.Background(), 1).ForEachIdx(n, func(i int) { want[i] = i * i })
	for _, workers := range []int{2, 8} {
		got := make([]int, n)
		NewGroup(context.Background(), workers).ForEachIdx(n, func(i int) { got[i] = i * i })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestGroupCancellation: Cancelled flips once the context dies, and
// Err surfaces the cause.
func TestGroupCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGroup(ctx, 2)
	if g.Cancelled() {
		t.Fatal("fresh group already cancelled")
	}
	cancel()
	if !g.Cancelled() {
		t.Fatal("group not cancelled after ctx cancel")
	}
	if g.Err() != context.Canceled {
		t.Fatalf("Err = %v, want context.Canceled", g.Err())
	}
	// A group with no context never cancels.
	if NewGroup(nil, 2).Cancelled() {
		t.Fatal("nil-ctx group reports cancelled")
	}
}

// TestGroupForkReusesTokens: sequential forks must not leak tokens.
func TestGroupForkReusesTokens(t *testing.T) {
	g := NewGroup(context.Background(), 2)
	var ran atomic.Int64
	for i := 0; i < 100; i++ {
		g.Fork(func() { ran.Add(1) }, func() { ran.Add(1) })
	}
	if ran.Load() != 200 {
		t.Fatalf("ran %d closures, want 200", ran.Load())
	}
	if len(g.tokens) != cap(g.tokens) {
		t.Fatalf("leaked tokens: %d of %d free", len(g.tokens), cap(g.tokens))
	}
}

// TestGroupWorkerPanicReraised: a panic on a pooled worker goroutine,
// under Fork or ForEachIdx, reaches the calling goroutine as a panic
// it can recover, carrying the original value and, under %+v, the
// stack it was raised on; the group's tokens come back for the next
// call.
func TestGroupWorkerPanicReraised(t *testing.T) {
	recovered := func(run func()) (r any) {
		defer func() { r = recover() }()
		run()
		return nil
	}
	g := NewGroup(context.Background(), 2)
	// With a free token, Fork runs its second closure on a worker.
	r := recovered(func() { g.Fork(func() {}, func() { panic("fork boom") }) })
	if r == nil || fmt.Sprint(r) != "fork boom" {
		t.Fatalf("Fork re-raised %v, want fork boom", r)
	}
	if s := fmt.Sprintf("%+v", r); !strings.Contains(s, "panicked on:") || !strings.Contains(s, "TestGroupWorkerPanicReraised") {
		t.Fatalf("%%+v of the re-raised panic carries no stack:\n%s", s)
	}
	// Every index panics, so the spawned helper panics on whichever
	// index it takes.
	r = recovered(func() {
		g.ForEachIdx(2, func(int) {
			time.Sleep(time.Millisecond)
			panic("foreach boom")
		})
	})
	if r == nil || fmt.Sprint(r) != "foreach boom" {
		t.Fatalf("ForEachIdx re-raised %v, want foreach boom", r)
	}
	var ran atomic.Int64
	g.ForEachIdx(8, func(int) { ran.Add(1) })
	if ran.Load() != 8 {
		t.Fatalf("after a panic the group ran %d of 8 calls", ran.Load())
	}
}
