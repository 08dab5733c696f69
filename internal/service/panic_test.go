package service_test

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	topomap "repro"
	"repro/internal/service"
	"repro/internal/service/client"
)

// Fault containment: a mapper that panics, inline on the solve
// goroutine or on a pooled worker, or that returns a placement the
// engine rejects, fails only its own request with a 500 on every
// solving endpoint, and the same server answers the next request.

// panicSeed is the one seed on which the faulty test mappers panic or
// misplace. On any other seed they place identity, so a portfolio
// that auto-expands to every registered mapper (run at other seeds by
// other tests in this binary) is not failed by them.
const panicSeed = 666

func init() {
	identity := func(in topomap.MapperInput) []int32 {
		nodeOf := make([]int32, in.Coarse.N())
		copy(nodeOf, in.Alloc.Nodes)
		return nodeOf
	}
	mappers := []struct {
		name string
		fail func(in topomap.MapperInput)
	}{
		// Panics on the solve goroutine itself.
		{"TEST-PANIC", func(topomap.MapperInput) { panic("test mapper panicked inline") }},
		// Panics on every index of a pooled ForEachIdx, so the helper
		// goroutine the solve's group spawns panics too.
		{"TEST-PANIC-POOL", func(in topomap.MapperInput) {
			in.Exec.Par.ForEachIdx(2, func(int) {
				time.Sleep(time.Millisecond)
				panic("test mapper panicked on a worker")
			})
		}},
	}
	for _, m := range mappers {
		err := topomap.RegisterMapper(topomap.NewMapper(m.name, topomap.MapperCaps{},
			func(in topomap.MapperInput) ([]int32, error) {
				if in.Seed == panicSeed {
					m.fail(in)
				}
				return identity(in), nil
			}))
		if err != nil {
			panic(err)
		}
	}
	// Places one group too few, which the engine rejects as the
	// mapper's fault.
	err := topomap.RegisterMapper(topomap.NewMapper("TEST-SHORT-PLACEMENT", topomap.MapperCaps{},
		func(in topomap.MapperInput) ([]int32, error) {
			nodeOf := identity(in)
			if in.Seed == panicSeed {
				nodeOf = nodeOf[1:]
			}
			return nodeOf, nil
		}))
	if err != nil {
		panic(err)
	}
}

// syncBuffer is a log sink safe for the concurrent writes of a server.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestSolvePanicFailsOnlyItsRequest(t *testing.T) {
	spec, _ := testTasks(32)
	var logs syncBuffer
	srv := service.New(service.Config{Workers: 2, MaxParallelism: 2,
		Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	jsonC := client.InProcess(srv.Handler(), client.WithProtocol(client.ProtoJSON))
	binC := client.InProcess(srv.Handler())
	ctx := context.Background()
	alloc := service.AllocationSpec{SparseNodes: 4, Seed: 1}
	mapReq := func(mapper string, seed int64) service.MapRequest {
		return service.MapRequest{Topology: torusSpec(), Allocation: alloc, Tasks: spec,
			Mapper: mapper, Seed: seed, Parallelism: 2}
	}
	answers := func(what string) {
		t.Helper()
		for _, c := range []*client.Client{jsonC, binC} {
			resp, err := c.Map(ctx, mapReq("UWH", 1))
			if err != nil {
				t.Fatalf("after %s: server unserviceable: %v", what, err)
			}
			if resp.Metrics.WH <= 0 {
				t.Fatalf("after %s: degenerate WH", what)
			}
		}
	}
	want500 := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: want a 500, got success", what)
		}
		if !strings.Contains(err.Error(), "500") || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("%s: want a 500 naming the panic, got %v", what, err)
		}
	}
	for _, mapper := range []string{"TEST-PANIC", "TEST-PANIC-POOL"} {
		_, err := jsonC.Map(ctx, mapReq(mapper, panicSeed))
		want500(mapper+" /v1/map", err)
		answers(mapper + " /v1/map")

		_, err = binC.Map(ctx, mapReq(mapper, panicSeed))
		want500(mapper+" /v2/map", err)
		answers(mapper + " /v2/map")

		_, err = jsonC.Portfolio(ctx, service.PortfolioRequest{Topology: torusSpec(), Allocation: alloc, Tasks: spec,
			Candidates:  []topomap.Solve{{Mapper: "UWH", Seed: 1}, {Mapper: topomap.Mapper(mapper), Seed: panicSeed}},
			Parallelism: 2})
		want500(mapper+" /v1/portfolio", err)
		answers(mapper + " /v1/portfolio")
	}
	// One log line per panic, with the request id and a stack that
	// reaches the mapper's panicking line.
	var panics int
	for _, line := range strings.Split(logs.String(), "\n") {
		if !strings.Contains(line, `msg="solve panic"`) {
			continue
		}
		panics++
		for _, want := range []string{"req_id=", "stack=", "panic_test.go"} {
			if !strings.Contains(line, want) {
				t.Fatalf("panic log line lacks %q:\n%s", want, line)
			}
		}
	}
	if panics != 6 {
		t.Fatalf("logged %d solve panics, want 6:\n%s", panics, logs.String())
	}
	// The panic counter counts exactly the six panicking requests, on
	// /statusz and on /metrics.
	if got := srv.Status().SolvePanics; got != 6 {
		t.Fatalf("statusz solve_panics = %d, want 6", got)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "\nmapd_solve_panics_total 6\n") {
		t.Fatalf("metrics lack mapd_solve_panics_total 6:\n%s", rec.Body.String())
	}
}

// TestMapperPlacementFaultIs500: a mapper that returns a broken
// placement fails its request with a 500, not a 400, since the client
// sent a valid request, on every solving endpoint and both protocols,
// and the same server answers the next request.
func TestMapperPlacementFaultIs500(t *testing.T) {
	spec, _ := testTasks(32)
	srv := service.New(service.Config{Workers: 2, MaxParallelism: 2})
	jsonC := client.InProcess(srv.Handler(), client.WithProtocol(client.ProtoJSON))
	binC := client.InProcess(srv.Handler())
	ctx := context.Background()
	alloc := service.AllocationSpec{SparseNodes: 4, Seed: 1}
	mapReq := func(mapper string, seed int64) service.MapRequest {
		return service.MapRequest{Topology: torusSpec(), Allocation: alloc, Tasks: spec,
			Mapper: mapper, Seed: seed, Parallelism: 2}
	}
	want500 := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: want a 500, got success", what)
		}
		if !strings.Contains(err.Error(), "500") || !strings.Contains(err.Error(), topomap.ErrMapperPlacement.Error()) {
			t.Fatalf("%s: want a 500 naming the invalid placement, got %v", what, err)
		}
	}
	answers := func(what string) {
		t.Helper()
		for _, c := range []*client.Client{jsonC, binC} {
			resp, err := c.Map(ctx, mapReq("UWH", 1))
			if err != nil {
				t.Fatalf("after %s: server unserviceable: %v", what, err)
			}
			if resp.Metrics.WH <= 0 {
				t.Fatalf("after %s: degenerate WH", what)
			}
		}
	}
	const mapper = "TEST-SHORT-PLACEMENT"
	_, err := jsonC.Map(ctx, mapReq(mapper, panicSeed))
	want500("/v1/map", err)
	answers("/v1/map")

	_, err = binC.Map(ctx, mapReq(mapper, panicSeed))
	want500("/v2/map", err)
	answers("/v2/map")

	_, err = jsonC.Portfolio(ctx, service.PortfolioRequest{Topology: torusSpec(), Allocation: alloc, Tasks: spec,
		Candidates:  []topomap.Solve{{Mapper: "UWH", Seed: 1}, {Mapper: mapper, Seed: panicSeed}},
		Parallelism: 2})
	want500("/v1/portfolio", err)
	answers("/v1/portfolio")
}
