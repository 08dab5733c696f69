package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/arena"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/routecache"
	"repro/internal/torus"
)

// Parallel congestion-refinement tests: the Algorithm 3 scoring
// fan-out must change wall-clock only, never bytes. These run under
// `make race` as the proof that the concurrent scorers are read-only
// between commits.

// refineMCFixture builds an instance dense enough to pass the scoring
// work gate, so the worker sweep genuinely exercises the fan-out.
func refineMCFixture(t testing.TB) (*graph.Graph, *routecache.Table, []int32) {
	t.Helper()
	topo := torus.NewHopper3D(16, 12, 16)
	a, err := allocFixture(topo, 256)
	if err != nil {
		t.Fatal(err)
	}
	tab := table(t, topo, a)
	g := graph.RandomConnected(256, 1024, 100, 31)
	if congScoreWork(g, tab) < congScoreParMinWork {
		t.Fatalf("fixture below the parallel work gate: %d < %d",
			congScoreWork(g, tab), congScoreParMinWork)
	}
	return g, tab, a
}

// execWithWorkers builds an Exec running w workers under ctx.
func execWithWorkers(ctx context.Context, w int) *Exec {
	return &Exec{Par: parallel.NewGroup(ctx, w), Arena: arena.New()}
}

// TestRefineCongestionWorkerDeterminism: for both congestion kinds and
// the adaptive variant, the refined mapping and the swap count must be
// byte-identical at workers = 1, 2 and 8.
func TestRefineCongestionWorkerDeterminism(t *testing.T) {
	g, tab, _ := refineMCFixture(t)
	base := MapUG(g, tab, nil)

	run := func(kind CongestionKind, adaptive bool, w int) ([]int32, int) {
		nodeOf := append([]int32(nil), base...)
		opt := RefineOptions{Exec: execWithWorkers(context.Background(), w)}
		var swaps int
		if adaptive {
			swaps = RefineCongestionAdaptive(g, tab, nodeOf, kind, opt)
		} else {
			swaps = RefineCongestion(g, tab, nodeOf, kind, opt)
		}
		return nodeOf, swaps
	}
	cases := []struct {
		name     string
		kind     CongestionKind
		adaptive bool
	}{
		{"volume", VolumeCongestion, false},
		{"message", MessageCongestion, false},
		{"volume-adaptive", VolumeCongestion, true},
	}
	for _, tc := range cases {
		serial, serialSwaps := run(tc.kind, tc.adaptive, 1)
		if serialSwaps == 0 {
			t.Fatalf("%s: refinement found no swap on the fixture", tc.name)
		}
		for _, w := range []int{2, 8} {
			got, swaps := run(tc.kind, tc.adaptive, w)
			if swaps != serialSwaps {
				t.Fatalf("%s workers=%d: %d swaps, serial did %d", tc.name, w, swaps, serialSwaps)
			}
			if !reflect.DeepEqual(got, serial) {
				t.Fatalf("%s workers=%d: mapping diverged from serial", tc.name, w)
			}
		}
	}
}

// TestRefineCongestionGateKeepsBytes: an instance below the work gate
// takes the serial fast path at any worker count; forcing it through
// with a parallel pool must still produce the serial bytes, because
// the commit rule is shared.
func TestRefineCongestionGateKeepsBytes(t *testing.T) {
	topo := torus.NewHopper3D(6, 6, 6)
	a, err := allocFixture(topo, 24)
	if err != nil {
		t.Fatal(err)
	}
	tab := table(t, topo, a)
	g := graph.RandomConnected(24, 60, 40, 9)
	if congScoreWork(g, tab) >= congScoreParMinWork {
		t.Fatalf("small fixture unexpectedly passes the work gate")
	}
	base := MapUG(g, tab, nil)
	serial := append([]int32(nil), base...)
	RefineCongestion(g, tab, serial, VolumeCongestion, RefineOptions{})
	pooled := append([]int32(nil), base...)
	RefineCongestion(g, tab, pooled, VolumeCongestion,
		RefineOptions{Exec: execWithWorkers(context.Background(), 8)})
	if !reflect.DeepEqual(serial, pooled) {
		t.Fatal("gated instance diverged between nil Exec and an 8-worker pool")
	}
}

// TestRefineCongestionCancelMidRefinement: cancelling the context
// while Algorithm 3 is mid-flight must make it bail at the next
// commit-round poll with a structurally valid (injective, allocated)
// mapping — not run to convergence, not corrupt state.
func TestRefineCongestionCancelMidRefinement(t *testing.T) {
	g, tab, nodes := refineMCFixture(t)
	base := MapUG(g, tab, nil)

	// Baseline: how many swaps an uncancelled run commits.
	full := append([]int32(nil), base...)
	fullSwaps := RefineCongestion(g, tab, full, VolumeCongestion,
		RefineOptions{Exec: execWithWorkers(context.Background(), 2)})
	if fullSwaps < 2 {
		t.Skipf("fixture converges in %d swaps; nothing to cancel mid-flight", fullSwaps)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already-dead context: the first poll must stop the run
	cancelled := append([]int32(nil), base...)
	swaps := RefineCongestion(g, tab, cancelled, VolumeCongestion,
		RefineOptions{Exec: execWithWorkers(ctx, 2)})
	if swaps != 0 {
		t.Fatalf("pre-cancelled context still committed %d swaps", swaps)
	}
	if !reflect.DeepEqual(cancelled, base) {
		t.Fatal("pre-cancelled refinement mutated the mapping")
	}

	// Mid-flight: cancel shortly after the run starts; it must return
	// promptly with a valid permutation of the allocated nodes.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel2()
	mid := append([]int32(nil), base...)
	start := time.Now()
	RefineCongestion(g, tab, mid, VolumeCongestion,
		RefineOptions{Exec: execWithWorkers(ctx2, 2)})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancelled refinement ran %v", elapsed)
	}
	allocated := map[int32]bool{}
	for _, m := range nodes {
		allocated[m] = true
	}
	used := map[int32]bool{}
	for task, m := range mid {
		if !allocated[m] {
			t.Fatalf("task %d on unallocated node %d after cancellation", task, m)
		}
		if used[m] {
			t.Fatalf("node %d hosts two tasks after cancellation", m)
		}
		used[m] = true
	}
}

// allocFixture reserves n sparse nodes on topo (helper shared by the
// parallel refinement tests; returns node ids only).
func allocFixture(topo *torus.Torus, n int) ([]int32, error) {
	a, err := alloc.Generate(topo, n, alloc.Config{Mode: alloc.Sparse, Seed: 13})
	if err != nil {
		return nil, err
	}
	return a.Nodes, nil
}
