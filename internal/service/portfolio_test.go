package service_test

// Portfolio endpoint tests: wire-level racing with fail-fast
// validation, determinism across the parallelism knob, candidate
// auto-expansion, status counters, and the Solve-spec equivalence to
// the closure-option engine path.

import (
	"context"
	"reflect"
	"strings"
	"testing"

	topomap "repro"
	"repro/internal/service"
)

// portfolioCandidates returns the seven Figure-2 mappers as wire
// candidates at one seed.
func portfolioCandidates(seed int64) []topomap.Solve {
	var out []topomap.Solve
	for _, mp := range topomap.Mappers() {
		out = append(out, topomap.Solve{Mapper: mp, Seed: seed})
	}
	return out
}

// TestPortfolioEndpoint races the Figure-2 mappers over the wire: the
// winner must head an ascending leaderboard, and Best must be
// byte-identical to a plain /v1/map of the winning candidate.
func TestPortfolioEndpoint(t *testing.T) {
	spec, _ := testTasks(64)
	c := newClient(t, service.Config{})
	resp, err := c.Portfolio(context.Background(), service.PortfolioRequest{
		Topology:   torusSpec(),
		Allocation: service.AllocationSpec{SparseNodes: 8, Seed: 1},
		Tasks:      spec,
		Candidates: portfolioCandidates(5),
		Objective:  topomap.MinimizeMetric("mc"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Leaderboard) != len(topomap.Mappers()) {
		t.Fatalf("leaderboard has %d entries, want %d", len(resp.Leaderboard), len(topomap.Mappers()))
	}
	if resp.Skipped != 0 {
		t.Fatalf("skipped = %d", resp.Skipped)
	}
	if resp.Winner != resp.Leaderboard[0].Index {
		t.Fatalf("winner %d != leaderboard head %d", resp.Winner, resp.Leaderboard[0].Index)
	}
	for i, entry := range resp.Leaderboard {
		if entry.Metrics == nil {
			t.Fatalf("rank %d (%s) has no metrics", i, entry.Solve.Mapper)
		}
		if entry.Score != entry.Metrics.MC {
			t.Fatalf("rank %d: score %g != MC %g", i, entry.Score, entry.Metrics.MC)
		}
		if i > 0 && entry.Score < resp.Leaderboard[i-1].Score {
			t.Fatalf("leaderboard not ascending at rank %d", i)
		}
	}
	winner := resp.Leaderboard[0].Solve
	single, err := c.Map(context.Background(), service.MapRequest{
		Topology:   torusSpec(),
		Allocation: service.AllocationSpec{SparseNodes: 8, Seed: 1},
		Tasks:      spec,
		Mapper:     string(winner.Mapper),
		Seed:       winner.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Best.NodeOf, single.NodeOf) ||
		!reflect.DeepEqual(resp.Best.GroupOf, single.GroupOf) ||
		resp.Best.Metrics != single.Metrics {
		t.Fatal("portfolio best diverged from a plain /v1/map of the winning candidate")
	}
}

// TestPortfolioWireValidation: malformed portfolios cost a 400 before
// any solve — duplicate (mapper, seed) candidates, unknown mapper and
// objective names, wire-set candidate workers, and the candidate cap.
func TestPortfolioWireValidation(t *testing.T) {
	spec, _ := testTasks(32)
	c := newClient(t, service.Config{MaxPortfolioCandidates: 3})
	good := service.PortfolioRequest{
		Topology:   torusSpec(),
		Allocation: service.AllocationSpec{SparseNodes: 4, Seed: 1},
		Tasks:      spec,
		Candidates: []topomap.Solve{{Mapper: "UWH", Seed: 1}, {Mapper: "UMC", Seed: 1}},
	}
	cases := []struct {
		name   string
		mutate func(service.PortfolioRequest) service.PortfolioRequest
		want   string
	}{
		{"duplicate candidates", func(r service.PortfolioRequest) service.PortfolioRequest {
			r.Candidates = []topomap.Solve{{Mapper: "UWH", Seed: 1}, {Mapper: "uwh", Seed: 1}}
			return r
		}, "duplicate"},
		{"unknown mapper", func(r service.PortfolioRequest) service.PortfolioRequest {
			r.Candidates = []topomap.Solve{{Mapper: "NOPE", Seed: 1}}
			return r
		}, "unknown mapper"},
		{"unknown objective", func(r service.PortfolioRequest) service.PortfolioRequest {
			r.Objective = topomap.MinimizeMetric("latency")
			return r
		}, "unknown objective"},
		{"ambiguous objective", func(r service.PortfolioRequest) service.PortfolioRequest {
			r.Objective = topomap.Objective{Minimize: "wh",
				Terms: []topomap.ObjectiveTerm{{Metric: "mc", Weight: 1}}}
			return r
		}, "pick one"},
		{"candidate workers", func(r service.PortfolioRequest) service.PortfolioRequest {
			r.Candidates = []topomap.Solve{{Mapper: "UWH", Seed: 1, Workers: 4}}
			return r
		}, "parallelism"},
		{"candidate cap", func(r service.PortfolioRequest) service.PortfolioRequest {
			r.Candidates = []topomap.Solve{
				{Mapper: "UWH", Seed: 1}, {Mapper: "UMC", Seed: 1},
				{Mapper: "UG", Seed: 1}, {Mapper: "DEF", Seed: 1}}
			return r
		}, "cap"},
		{"sim objective without sim", func(r service.PortfolioRequest) service.PortfolioRequest {
			r.Objective = topomap.MinimizeMetric("sim_seconds")
			return r
		}, "sim spec"},
	}
	for _, tc := range cases {
		_, err := c.Portfolio(context.Background(), tc.mutate(good))
		if err == nil {
			t.Fatalf("%s: want error", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if !strings.Contains(err.Error(), "HTTP 400") {
			t.Fatalf("%s: want a 400, got %q", tc.name, err)
		}
	}
	// The good request still solves after the error storm.
	if _, err := c.Portfolio(context.Background(), good); err != nil {
		t.Fatalf("server unserviceable after validation errors: %v", err)
	}
}

// TestPortfolioParallelismDeterminism: the parallelism field changes
// wall-clock only — winner, leaderboard order and scores, and the
// winning placement are identical at 1, 2, 8 and clamped values.
func TestPortfolioParallelismDeterminism(t *testing.T) {
	spec, _ := testTasks(64)
	c := newClient(t, service.Config{Workers: 8})
	req := service.PortfolioRequest{
		Topology:   torusSpec(),
		Allocation: service.AllocationSpec{SparseNodes: 8, Seed: 1},
		Tasks:      spec,
		Candidates: portfolioCandidates(3),
		Objective:  topomap.MinimizeMetric("wh"),
	}
	base, err := c.Portfolio(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 8, 1000} {
		req.Parallelism = p
		got, err := c.Portfolio(context.Background(), req)
		if err != nil {
			t.Fatalf("parallelism=%d: %v", p, err)
		}
		if got.Winner != base.Winner {
			t.Fatalf("parallelism=%d: winner %d, want %d", p, got.Winner, base.Winner)
		}
		for i := range base.Leaderboard {
			b, g := base.Leaderboard[i], got.Leaderboard[i]
			if g.Index != b.Index || g.Score != b.Score {
				t.Fatalf("parallelism=%d: leaderboard rank %d diverged", p, i)
			}
		}
		if !reflect.DeepEqual(got.Best.NodeOf, base.Best.NodeOf) ||
			!reflect.DeepEqual(got.Best.GroupOf, base.Best.GroupOf) {
			t.Fatalf("parallelism=%d: winning placement diverged", p)
		}
	}
}

// TestPortfolioAutoExpansion: an empty candidate list expands
// server-side to every registered mapper the topology dispatches
// (including this binary's test mappers — the registry is the
// registry).
func TestPortfolioAutoExpansion(t *testing.T) {
	spec, _ := testTasks(32)
	c := newClient(t, service.Config{})
	resp, err := c.Portfolio(context.Background(), service.PortfolioRequest{
		Topology:   torusSpec(),
		Allocation: service.AllocationSpec{SparseNodes: 4, Seed: 1},
		Tasks:      spec,
		Seed:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Coordinate-requiring mappers (GEOM, SFCM) are excluded: the spec
	// carries no coords, so the expansion must leave them out rather
	// than fail the whole portfolio.
	want := 0
	for _, mp := range topomap.RegisteredMappers() {
		if !topomap.MapperCapsOf(mp).NeedsCoords {
			want++
		}
	}
	if len(resp.Leaderboard) < want {
		t.Fatalf("auto expansion ran %d candidates, registry has %d coordinate-free mappers",
			len(resp.Leaderboard), want)
	}
	for _, entry := range resp.Leaderboard {
		if topomap.MapperCapsOf(entry.Solve.Mapper).NeedsCoords {
			t.Fatalf("auto expansion included %s on a coordinate-free task graph", entry.Solve.Mapper)
		}
	}
	for _, entry := range resp.Leaderboard {
		if entry.Solve.Seed != 2 {
			t.Fatalf("auto candidate %s ran at seed %d, want 2", entry.Solve.Mapper, entry.Solve.Seed)
		}
	}
}

// TestPortfolioDeadlineBestSoFarOverWire: a deadline that cuts off
// one candidate must still deliver HTTP 200 with the best of what
// completed and the loser marked skipped — the handler waits for the
// portfolio to assemble its best-so-far result instead of racing the
// response against the deadline. TEST-SLOW (registered above) sleeps
// 500ms; the 150ms deadline kills it, UWH survives.
func TestPortfolioDeadlineBestSoFarOverWire(t *testing.T) {
	spec, _ := testTasks(32)
	c := newClient(t, service.Config{Workers: 2})
	resp, err := c.Portfolio(context.Background(), service.PortfolioRequest{
		Topology:    torusSpec(),
		Allocation:  service.AllocationSpec{SparseNodes: 4, Seed: 1},
		Tasks:       spec,
		Candidates:  []topomap.Solve{{Mapper: "UWH", Seed: 1}, {Mapper: "TEST-SLOW", Seed: 1}},
		TimeoutMS:   150,
		Parallelism: 2,
	})
	if err != nil {
		t.Fatalf("deadline portfolio must return best-so-far, got %v", err)
	}
	if resp.Winner != 0 || resp.Best.Mapper != "UWH" {
		t.Fatalf("winner = %d (%s), want 0 (UWH)", resp.Winner, resp.Best.Mapper)
	}
	if resp.Skipped != 1 {
		t.Fatalf("skipped = %d, want 1", resp.Skipped)
	}
	last := resp.Leaderboard[len(resp.Leaderboard)-1]
	if !last.Skipped || last.Index != 1 || last.Metrics != nil {
		t.Fatalf("skipped entry malformed: %+v", last)
	}
	st, err := c.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.PortfolioSkipped != 1 {
		t.Fatalf("portfolio_skipped = %d, want 1", st.PortfolioSkipped)
	}
}

// TestPortfolioStatusCounters: /statusz exposes the portfolio
// traffic.
func TestPortfolioStatusCounters(t *testing.T) {
	spec, _ := testTasks(32)
	c := newClient(t, service.Config{MaxPortfolioCandidates: 5})
	for i := 0; i < 2; i++ {
		if _, err := c.Portfolio(context.Background(), service.PortfolioRequest{
			Topology:   torusSpec(),
			Allocation: service.AllocationSpec{SparseNodes: 4, Seed: 1},
			Tasks:      spec,
			Candidates: []topomap.Solve{{Mapper: "UWH", Seed: 1}, {Mapper: "UG", Seed: 1}, {Mapper: "DEF", Seed: 1}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.PortfolioRequests != 2 {
		t.Fatalf("portfolio_requests = %d, want 2", st.PortfolioRequests)
	}
	if st.PortfolioCandidates != 6 {
		t.Fatalf("portfolio_candidates = %d, want 6", st.PortfolioCandidates)
	}
	if st.MaxCandidates != 5 {
		t.Fatalf("max_candidates = %d, want 5", st.MaxCandidates)
	}
}

// TestSolveWireMatchesClosurePath is the service side of the Solve
// round trip: a wire request with every knob set must match a direct
// engine RunSolve of the same Solve, byte for byte — proving the
// wire's Solve lowering and the library call are the same pipeline.
func TestSolveWireMatchesClosurePath(t *testing.T) {
	spec, tg := testTasks(64)
	c := newClient(t, service.Config{})
	topo := topomap.NewTorus([]int{6, 6, 6}, []float64{9.38e9, 4.68e9, 9.38e9})
	a, err := topomap.SparseAllocation(topo, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := topomap.NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := eng.RunSolve(context.Background(), tg, topomap.Solve{Mapper: topomap.UWH, Seed: 11, Refine: true, FineRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	wire, err := c.Map(context.Background(), service.MapRequest{
		Topology:   torusSpec(),
		Allocation: service.AllocationSpec{SparseNodes: 8, Seed: 1},
		Tasks:      spec,
		Mapper:     "UWH",
		Seed:       11,
		Refine:     true,
		FineRefine: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wire.NodeOf, direct.NodeOf) || !reflect.DeepEqual(wire.GroupOf, direct.GroupOf) {
		t.Fatal("wire Solve path diverged from the closure-option engine path")
	}
	if wire.FineWHGain != direct.FineWHGain || wire.FineVolGain != direct.FineVolGain {
		t.Fatal("fine-refine gains diverged between wire and closure paths")
	}
	if wire.Metrics.WH != direct.Metrics.WH || wire.Metrics.MC != direct.Metrics.MC {
		t.Fatal("metrics diverged between wire and closure paths")
	}
}
