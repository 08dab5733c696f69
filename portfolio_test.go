package topomap

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// Portfolio tests: deterministic winner selection at any worker
// count, objective-driven ranking, candidate auto-expansion with
// capability filtering, fail-fast validation, and best-so-far
// behaviour under a deadline. The worker-count tests run under
// `make race`.

// portfolioFixture builds the shared portfolio instance: the 128-task
// engine fixture plus the seven Figure-2 mappers as candidates.
func portfolioFixture(t *testing.T) (*Engine, *TaskGraph, []Solve) {
	t.Helper()
	tg, topo, a := engineFixture(t, 128)
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	var cands []Solve
	for _, mp := range Mappers() {
		cands = append(cands, Solve{Mapper: mp, Seed: 3})
	}
	if len(cands) < 6 {
		t.Fatalf("fixture has %d candidates, want >= 6", len(cands))
	}
	return eng, tg, cands
}

// TestEnginePortfolioDeterministic is the tentpole acceptance: a
// >= 6-candidate portfolio returns the same winner and the same
// leaderboard order — and a byte-identical winning rankfile — at
// workers 1, 2 and 8.
func TestEnginePortfolioDeterministic(t *testing.T) {
	eng, tg, cands := portfolioFixture(t)
	req := PortfolioRequest{Tasks: tg, Candidates: cands, Objective: MinimizeMetric("mc")}

	req.Workers = 1
	base, err := eng.RunPortfolio(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Leaderboard) != len(cands) {
		t.Fatalf("leaderboard has %d entries, want %d", len(base.Leaderboard), len(cands))
	}
	if base.Skipped != 0 {
		t.Fatalf("uncancelled portfolio skipped %d candidates", base.Skipped)
	}
	baseRF := rankfileBytes(t, base.Best, eng.Allocation())
	for _, workers := range []int{2, 8} {
		req.Workers = workers
		got, err := eng.RunPortfolio(context.Background(), req)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Winner != base.Winner {
			t.Fatalf("workers=%d: winner %d (%s), want %d (%s)", workers,
				got.Winner, got.Best.Mapper, base.Winner, base.Best.Mapper)
		}
		for i := range base.Leaderboard {
			b, g := base.Leaderboard[i], got.Leaderboard[i]
			if g.Index != b.Index || g.Score != b.Score || g.Skipped != b.Skipped {
				t.Fatalf("workers=%d: leaderboard rank %d diverged: %+v vs %+v", workers, i, g, b)
			}
		}
		if rf := rankfileBytes(t, got.Best, eng.Allocation()); rf != baseRF {
			t.Fatalf("workers=%d: winning rankfile bytes diverged", workers)
		}
	}

	// The winning result is byte-identical to solving the winning
	// candidate directly.
	direct, err := eng.RunSolve(context.Background(), tg, cands[base.Winner])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.NodeOf, base.Best.NodeOf) ||
		!reflect.DeepEqual(direct.GroupOf, base.Best.GroupOf) ||
		direct.Metrics != base.Best.Metrics {
		t.Fatal("portfolio winner diverged from a direct RunSolve of the same candidate")
	}
}

// TestEnginePortfolioObjectiveRanking: the leaderboard is sorted
// ascending by the declared objective, the winner minimizes it, and
// changing the objective re-ranks the same candidate set.
func TestEnginePortfolioObjectiveRanking(t *testing.T) {
	eng, tg, cands := portfolioFixture(t)
	for _, metric := range []string{"mc", "wh", "mmc", "ac"} {
		res, err := eng.RunPortfolio(context.Background(), PortfolioRequest{
			Tasks: tg, Candidates: cands, Objective: MinimizeMetric(metric)})
		if err != nil {
			t.Fatalf("%s: %v", metric, err)
		}
		for i, entry := range res.Leaderboard {
			score, err := MinimizeMetric(metric).Score(entry.Result)
			if err != nil {
				t.Fatalf("%s: %v", metric, err)
			}
			if score != entry.Score {
				t.Fatalf("%s: rank %d reports score %g, metrics say %g", metric, i, entry.Score, score)
			}
			if i > 0 && entry.Score < res.Leaderboard[i-1].Score {
				t.Fatalf("%s: leaderboard not ascending at rank %d", metric, i)
			}
		}
		if res.Leaderboard[0].Index != res.Winner || res.Leaderboard[0].Result != res.Best {
			t.Fatalf("%s: winner fields disagree with leaderboard head", metric)
		}
	}
}

// TestEnginePortfolioAutoCandidates: an empty candidate list expands
// to every registered mapper the topology can dispatch — multipath
// mappers included on a torus, excluded on a bare Topology that
// cannot enumerate minimal routes.
func TestEnginePortfolioAutoCandidates(t *testing.T) {
	tg, topo, a := engineFixture(t, 128)
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	names := map[Mapper]bool{}
	for _, mp := range eng.CompatibleMappers() {
		names[mp] = true
	}
	if !names[UMCA] {
		t.Fatal("torus CompatibleMappers misses the multipath mapper UMCA")
	}
	flat, err := NewEngine(flatTopo{topo}, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, mp := range flat.CompatibleMappers() {
		if mp == UMCA {
			t.Fatal("non-multipath topology still lists UMCA as compatible")
		}
	}
	res, err := flat.RunPortfolio(context.Background(), PortfolioRequest{Tasks: tg, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Leaderboard) != len(flat.CompatibleMappers()) {
		t.Fatalf("auto-expanded portfolio ran %d candidates, want %d",
			len(res.Leaderboard), len(flat.CompatibleMappers()))
	}
	for _, entry := range res.Leaderboard {
		if entry.Solve.Seed != 2 {
			t.Fatalf("auto candidate %s ran at seed %d, want the request seed 2", entry.Solve.Mapper, entry.Solve.Seed)
		}
	}
}

// TestEnginePortfolioValidation: duplicate (mapper, seed) candidates,
// unknown mappers, malformed objectives and sim-scoring objectives
// without a sim spec are all rejected before any solve runs.
func TestEnginePortfolioValidation(t *testing.T) {
	eng, tg, _ := portfolioFixture(t)
	cases := []struct {
		name string
		req  PortfolioRequest
		want string
	}{
		{"duplicate candidates",
			PortfolioRequest{Tasks: tg, Candidates: []Solve{{Mapper: UWH, Seed: 1}, {Mapper: UMC, Seed: 1}, {Mapper: UWH, Seed: 1}}},
			"duplicate"},
		{"unknown mapper",
			PortfolioRequest{Tasks: tg, Candidates: []Solve{{Mapper: "NOPE", Seed: 1}}},
			"unknown mapper"},
		{"unknown objective metric",
			PortfolioRequest{Tasks: tg, Candidates: []Solve{{Mapper: UWH, Seed: 1}}, Objective: MinimizeMetric("latency")},
			"unknown objective metric"},
		{"both minimize and terms",
			PortfolioRequest{Tasks: tg, Candidates: []Solve{{Mapper: UWH, Seed: 1}},
				Objective: Objective{Minimize: "wh", Terms: []ObjectiveTerm{{Metric: "mc", Weight: 1}}}},
			"pick one"},
		{"sim objective without sim spec",
			PortfolioRequest{Tasks: tg, Candidates: []Solve{{Mapper: UWH, Seed: 1}}, Objective: MinimizeMetric("sim_seconds")},
			"sim spec"},
		{"no task graph",
			PortfolioRequest{Candidates: []Solve{{Mapper: UWH, Seed: 1}}},
			"task graph"},
	}
	for _, tc := range cases {
		_, err := eng.RunPortfolio(context.Background(), tc.req)
		if err == nil {
			t.Fatalf("%s: want error", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// A refine-only variation of the same (mapper, seed) is also a
	// duplicate: candidates must differ in mapper or seed, so every
	// leaderboard line stays identifiable by that pair.
	_, err := eng.RunPortfolio(context.Background(), PortfolioRequest{Tasks: tg,
		Candidates: []Solve{{Mapper: DEF, Seed: 1}, {Mapper: DEF, Seed: 1, Refine: true}}})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("refine-only duplicate accepted: %v", err)
	}
}

// TestEnginePortfolioSimObjective: with a request-level SimSpec, a
// sim_seconds objective runs the simulator for every candidate and
// ranks by simulated time.
func TestEnginePortfolioSimObjective(t *testing.T) {
	eng, tg, cands := portfolioFixture(t)
	res, err := eng.RunPortfolio(context.Background(), PortfolioRequest{
		Tasks:      tg,
		Candidates: cands,
		Objective:  MinimizeMetric(SimSecondsMetric),
		Sim:        &SimSpec{BytesPerUnit: 4096, Params: SimParams{Seed: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range res.Leaderboard {
		if entry.Result.SimSeconds <= 0 {
			t.Fatalf("%s: candidate solved without simulation", entry.Solve.Mapper)
		}
		if entry.Score != entry.Result.SimSeconds {
			t.Fatalf("%s: score %g != sim seconds %g", entry.Solve.Mapper, entry.Score, entry.Result.SimSeconds)
		}
	}
}

// registerSlowPoll lazily registers a mapper that blocks until the
// solve's context dies (polling cooperatively like a real mapper),
// then reports the cancellation; with a live context it places
// identity after a bounded wait. The deadline test uses it as the
// candidate that never beats the clock. Registration is lazy — not
// init — so the registry-sweeping tests never pick it up by accident.
var slowPollOnce sync.Once

func registerSlowPoll(t *testing.T) {
	t.Helper()
	slowPollOnce.Do(func() {
		err := RegisterMapper(NewMapper("TEST-SLOWPOLL", MapperCaps{},
			func(in MapperInput) ([]int32, error) {
				for i := 0; i < 2000; i++ { // 10s bound: never wins a deadline race
					if in.Exec != nil && in.Exec.Par.Cancelled() {
						return nil, context.Canceled
					}
					time.Sleep(5 * time.Millisecond)
				}
				nodeOf := make([]int32, in.Coarse.N())
				copy(nodeOf, in.Alloc.Nodes)
				return nodeOf, nil
			}))
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestEnginePortfolioDeadlineBestSoFar: when the deadline cuts off a
// candidate, the portfolio returns the best of what completed and
// marks the loser Skipped instead of failing — and a deadline that
// beats every candidate surfaces the context error.
func TestEnginePortfolioDeadlineBestSoFar(t *testing.T) {
	registerSlowPoll(t)
	tg, topo, a := engineFixture(t, 128)
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	res, err := eng.RunPortfolio(ctx, PortfolioRequest{
		Tasks:      tg,
		Candidates: []Solve{{Mapper: UWH, Seed: 1}, {Mapper: "TEST-SLOWPOLL", Seed: 1}},
		Workers:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != 0 || res.Best.Mapper != UWH {
		t.Fatalf("winner = candidate %d (%s), want 0 (UWH)", res.Winner, res.Best.Mapper)
	}
	if res.Skipped != 1 {
		t.Fatalf("skipped = %d, want 1", res.Skipped)
	}
	last := res.Leaderboard[len(res.Leaderboard)-1]
	if !last.Skipped || last.Index != 1 || last.Result != nil {
		t.Fatalf("slow candidate's entry malformed: %+v", last)
	}

	// Deadline beating every candidate: the context error surfaces.
	dead, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := eng.RunPortfolio(dead, PortfolioRequest{
		Tasks:      tg,
		Candidates: []Solve{{Mapper: UWH, Seed: 1}},
	}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEnginePortfolioSharedPrefix: a race that groups and coarsens once
// per shared seed returns, for every candidate, exactly what a
// standalone RunSolve of that candidate returns — placement, metrics,
// coarse graph and rankfile — at workers 1, 2 and 8, on a unit-speed
// engine (only the Balance candidate balances) and on a speeds engine
// (every partitioning candidate balances). The candidate set mixes two
// shared seeds, a single-use seed, DEF (block grouping, never shared),
// UMMC (message graph), GEOM/SFCM (centroids), Refine, FineRefine and
// Balance candidates. No two results may alias one group vector, and a
// traced race carries group/coarsen spans marked shared_by while
// placing byte-identically to the untraced one.
func TestEnginePortfolioSharedPrefix(t *testing.T) {
	tg, topo, _ := engineFixture(t, 128)
	// 12 nodes of 16 processors leave the balance stage free slots to
	// migrate the skewed loads into.
	a, err := SparseAllocation(topo, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]int64, tg.K)
	for i := range loads {
		loads[i] = 1 + int64(i*7%5)
	}
	tasks := withTestCoords(t, withLoads(tg, loads))
	fast := *a
	fast.Speeds = make([]float64, len(a.Nodes))
	for i := range fast.Speeds {
		fast.Speeds[i] = 1
		if i%3 == 0 {
			fast.Speeds[i] = 4
		}
	}
	cands := []Solve{
		{Mapper: UWH, Seed: 1, Refine: true},
		{Mapper: UMC, Seed: 1},
		{Mapper: DEF, Seed: 1},
		{Mapper: UMMC, Seed: 1},
		{Mapper: GEOM, Seed: 1},
		{Mapper: TMAP, Seed: 1},
		{Mapper: UG, Seed: 2, FineRefine: true},
		{Mapper: SFCM, Seed: 2},
		{Mapper: SMAP, Seed: 2, Balance: true},
		{Mapper: UWH, Seed: 2},
		{Mapper: UTH, Seed: 3},
	}
	// sharedBy is the shared_by count each candidate's prefix spans
	// must carry; 0 means the candidate grouped on its own.
	sharedBy := []int64{5, 5, 0, 5, 5, 5, 4, 4, 4, 4, 0}

	for _, al := range []*Allocation{a, &fast} {
		eng, err := NewEngine(topo, al)
		if err != nil {
			t.Fatal(err)
		}
		name := "unit-speeds"
		if !al.UnitSpeeds() {
			name = "speeds"
		}
		want := make([]*MapResult, len(cands))
		for i, c := range cands {
			if want[i], err = eng.RunSolve(context.Background(), tasks, c); err != nil {
				t.Fatalf("%s: standalone %d (%s): %v", name, i, c.Mapper, err)
			}
		}
		req := PortfolioRequest{Tasks: tasks, Candidates: cands, Objective: MinimizeMetric("wh")}
		for _, workers := range []int{1, 2, 8} {
			req.Workers = workers
			res, err := eng.RunPortfolio(context.Background(), req)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if res.Skipped != 0 || len(res.Leaderboard) != len(cands) {
				t.Fatalf("%s workers=%d: %d entries, %d skipped", name, workers, len(res.Leaderboard), res.Skipped)
			}
			groupArrays := map[*int32]int{}
			for _, entry := range res.Leaderboard {
				got, w := entry.Result, want[entry.Index]
				tag := fmt.Sprintf("%s workers=%d candidate %d (%s)", name, workers, entry.Index, entry.Solve.Mapper)
				if !reflect.DeepEqual(got.GroupOf, w.GroupOf) || !reflect.DeepEqual(got.NodeOf, w.NodeOf) {
					t.Fatalf("%s: placement diverged from a standalone RunSolve", tag)
				}
				if got.Metrics != w.Metrics {
					t.Fatalf("%s: metrics diverged:\n standalone %+v\n portfolio  %+v", tag, w.Metrics, got.Metrics)
				}
				if !reflect.DeepEqual(got.Coarse, w.Coarse) {
					t.Fatalf("%s: coarse graph diverged from a standalone RunSolve", tag)
				}
				if rankOrderOf(got, al) != rankOrderOf(w, al) {
					t.Fatalf("%s: rankfile bytes diverged", tag)
				}
				if prev, dup := groupArrays[&got.GroupOf[0]]; dup {
					t.Fatalf("%s: GroupOf aliases candidate %d's", tag, prev)
				}
				groupArrays[&got.GroupOf[0]] = entry.Index
			}
		}
	}

	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := eng.RunPortfolio(context.Background(), PortfolioRequest{Tasks: tasks, Candidates: cands, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	traced := make([]Solve, len(cands))
	for i, c := range cands {
		c.Trace = true
		traced[i] = c
	}
	res, err := eng.RunPortfolio(context.Background(), PortfolioRequest{Tasks: tasks, Candidates: traced, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, entry := range res.Leaderboard {
		tag := fmt.Sprintf("traced candidate %d (%s)", entry.Index, entry.Solve.Mapper)
		if p := plain.Leaderboard[i]; p.Index != entry.Index ||
			rankOrderOf(p.Result, a) != rankOrderOf(entry.Result, a) {
			t.Fatalf("%s: traced race placed differently from the untraced one", tag)
		}
		stages := entry.Result.Trace.Stages()
		if len(stages) < 3 || stages[0].Name != "group" || stages[1].Name != "coarsen" {
			t.Fatalf("%s: trace does not begin with group, coarsen: %v", tag, stageNames(t, entry.Result))
		}
		for _, st := range stages[:2] {
			if got := st.Counters["shared_by"]; got != sharedBy[entry.Index] {
				t.Fatalf("%s: %s span shared_by = %d, want %d", tag, st.Name, got, sharedBy[entry.Index])
			}
		}
		if sharedBy[entry.Index] == 0 {
			continue
		}
		alone, err := eng.RunSolve(context.Background(), tasks, traced[entry.Index])
		if err != nil {
			t.Fatal(err)
		}
		if got, want := stages[0].Counters["bisections"], alone.Trace.Stages()[0].Counters["bisections"]; got != want {
			t.Fatalf("%s: shared group span counted %d bisections, a standalone solve %d", tag, got, want)
		}
	}
}

// rankOrderOf renders a result's rankfile, or the reason block filling
// cannot realize it: the balance stage may leave a partially filled
// node between full ones, and two such placements must still agree.
func rankOrderOf(res *MapResult, a *Allocation) string {
	var sb strings.Builder
	if err := WriteRankOrder(&sb, res.Placement(), a); err != nil {
		return "unrealizable: " + err.Error()
	}
	return sb.String()
}

// TestEnginePortfolioSharedPrefixErrors: a shared prefix cut off by the
// context marks its candidates Skipped (and, with nothing left,
// surfaces the context error), while a failing shared prefix fails the
// portfolio under the lowest candidate index that uses it.
func TestEnginePortfolioSharedPrefixErrors(t *testing.T) {
	tg, topo, a := engineFixture(t, 128)
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	shared := []Solve{{Mapper: DEF, Seed: 1}, {Mapper: UWH, Seed: 1}, {Mapper: UMC, Seed: 1}}
	if _, err := eng.RunPortfolio(dead, PortfolioRequest{Tasks: tg, Candidates: shared[1:]}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	small, err := SparseAllocation(topo, 2, 1) // 32 procs < 128 tasks
	if err != nil {
		t.Fatal(err)
	}
	eng, err = NewEngine(topo, small)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.RunPortfolio(context.Background(), PortfolioRequest{Tasks: tg, Candidates: shared})
	if err == nil || !strings.Contains(err.Error(), "candidate 0 (DEF)") {
		t.Fatalf("err = %v, want the lowest failing candidate 0 (DEF)", err)
	}
	_, err = eng.RunPortfolio(context.Background(), PortfolioRequest{Tasks: tg, Candidates: shared[1:]})
	if err == nil || !strings.Contains(err.Error(), "candidate 0 (UWH)") || !strings.Contains(err.Error(), "exceed") {
		t.Fatalf("err = %v, want the shared prefix's error under candidate 0 (UWH)", err)
	}
}
