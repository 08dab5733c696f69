package service_test

// Load-shaped tests of the mapd service: wire equivalence to direct
// Engine.RunSolve for every registered mapper, concurrent clients against
// one server, engine-cache churn, cancellation mid-solve, and the
// capability/status/error surfaces. `make race` runs this whole
// package under the race detector.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	topomap "repro"
	"repro/internal/service"
	"repro/internal/service/client"
)

// testTasks builds a deterministic 64-task wheel-with-chords graph in
// both wire and engine forms.
func testTasks(n int) (service.TaskGraphSpec, *topomap.TaskGraph) {
	spec := service.TaskGraphSpec{N: n}
	for i := 0; i < n; i++ {
		spec.Edges = append(spec.Edges, [3]int64{int64(i), int64((i + 1) % n), 10})
		spec.Edges = append(spec.Edges, [3]int64{int64(i), int64((i + n/2) % n), 3})
	}
	tg, err := spec.Build()
	if err != nil {
		panic(err)
	}
	return spec, tg
}

// testTasksCoords is testTasks with a deterministic square grid of 2D
// coordinates attached — the coordinate-carrying variant the
// geometric mappers (GEOM, SFCM) need.
func testTasksCoords(n int) (service.TaskGraphSpec, *topomap.TaskGraph) {
	spec, _ := testTasks(n)
	side := 1
	for side*side < n {
		side++
	}
	spec.Coords = make([][]float64, n)
	for i := 0; i < n; i++ {
		spec.Coords[i] = []float64{float64(i % side), float64(i / side)}
	}
	tg, err := spec.Build()
	if err != nil {
		panic(err)
	}
	return spec, tg
}

// torusSpec is the shared test network: a 6x6x6 torus with default
// bandwidths.
func torusSpec() service.TopologySpec {
	return service.TopologySpec{Kind: "torus", Dims: []int{6, 6, 6}}
}

func newClient(t *testing.T, cfg service.Config) *client.Client {
	t.Helper()
	return client.InProcess(service.New(cfg).Handler())
}

// TestTopologySpecKeyMatchesFingerprint pins the cache-key contract:
// the key derived from a wire spec must equal the fingerprint of the
// topology it builds, so spec-keyed and engine-keyed cache entries
// never alias or split.
func TestTopologySpecKeyMatchesFingerprint(t *testing.T) {
	specs := []service.TopologySpec{
		{Kind: "torus", Dims: []int{6, 6, 6}},
		{Kind: "torus", Dims: []int{4, 4}, BW: []float64{1e9, 2e9}},
		{Kind: "mesh", Dims: []int{8, 8, 8}},
		{Kind: "fattree"},
		{Kind: "fattree", K: 4, BWHost: 5e9, Taper: 1},
		{Kind: "dragonfly"},
		{Kind: "dragonfly", H: 2, BWGlobal: 1e9},
	}
	for _, s := range specs {
		ns, err := s.Normalize()
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		net, err := ns.Build()
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		if got, want := ns.Key(), topomap.TopologyFingerprint(net.Topo); got != want {
			t.Fatalf("spec key %q != topology fingerprint %q", got, want)
		}
	}
}

// TestTopologySpecSizeLimit pins the node limit at its edges without
// building anything: the largest legal fat tree (k=256, 4,194,304
// hosts) and dragonfly (h=31) pass, the next sizes (k=258, h=32) fail,
// and so do arities whose host count wraps int arithmetic around to a
// small or negative number (k=2097152 cubes to 2⁶³; h=38968 wraps the
// dragonfly product), which Build would otherwise try to allocate.
func TestTopologySpecSizeLimit(t *testing.T) {
	for _, tc := range []struct {
		spec service.TopologySpec
		ok   bool
	}{
		{service.TopologySpec{Kind: "fattree", K: 256}, true},
		{service.TopologySpec{Kind: "fattree", K: 258}, false},
		{service.TopologySpec{Kind: "fattree", K: 2097152}, false},
		{service.TopologySpec{Kind: "fattree", K: math.MaxInt32 - 1}, false},
		{service.TopologySpec{Kind: "dragonfly", H: 31}, true},
		{service.TopologySpec{Kind: "dragonfly", H: 32}, false},
		{service.TopologySpec{Kind: "dragonfly", H: 38968}, false},
		{service.TopologySpec{Kind: "dragonfly", H: math.MaxInt32}, false},
	} {
		_, err := tc.spec.Normalize()
		if tc.ok && err != nil {
			t.Errorf("%s k=%d h=%d: %v", tc.spec.Kind, tc.spec.K, tc.spec.H, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "service limit")) {
			t.Errorf("%s k=%d h=%d: err = %v, want the service limit", tc.spec.Kind, tc.spec.K, tc.spec.H, err)
		}
	}
}

// TestMapEquivalence is the acceptance gate: the wire response must
// be byte-identical to a direct Engine.RunSolve for every registered
// mapper — same GroupOf, NodeOf and metrics.
func TestMapEquivalence(t *testing.T) {
	spec, tg := testTasks(64)
	specC, tgC := testTasksCoords(64)
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
	for _, mp := range topomap.RegisteredMappers() {
		if strings.HasPrefix(string(mp), "TEST-") {
			continue // registered by other tests in this binary
		}
		taskSpec, tasks := spec, tg
		if topomap.MapperCapsOf(mp).NeedsCoords {
			taskSpec, tasks = specC, tgC
		}
		direct, err := eng.RunSolve(context.Background(), tasks, topomap.Solve{Mapper: mp, Seed: 7})
		if err != nil {
			t.Fatalf("%s: direct: %v", mp, err)
		}
		resp, err := c.Map(context.Background(), service.MapRequest{
			Topology:   torusSpec(),
			Allocation: service.AllocationSpec{SparseNodes: 8, Seed: 1},
			Tasks:      taskSpec,
			Mapper:     string(mp),
			Seed:       7,
		})
		if err != nil {
			t.Fatalf("%s: wire: %v", mp, err)
		}
		if !reflect.DeepEqual(resp.GroupOf, direct.GroupOf) {
			t.Fatalf("%s: GroupOf diverged from direct Engine.RunSolve", mp)
		}
		if !reflect.DeepEqual(resp.NodeOf, direct.NodeOf) {
			t.Fatalf("%s: NodeOf diverged from direct Engine.RunSolve", mp)
		}
		m, dm := resp.Metrics, direct.Metrics
		if m.TH != dm.TH || m.WH != dm.WH || m.MMC != dm.MMC || m.MC != dm.MC ||
			m.AMC != dm.AMC || m.AC != dm.AC || m.UsedLinks != dm.UsedLinks {
			t.Fatalf("%s: metrics diverged:\n direct %+v\n wire   %+v", mp, dm, m)
		}
		if !reflect.DeepEqual(resp.AllocNodes, a.Nodes) {
			t.Fatalf("%s: alloc_nodes %v, want %v", mp, resp.AllocNodes, a.Nodes)
		}
	}
}

// TestBatchMatchesSingles pins the batch endpoint to the single-map
// one: same engine, same placements, in request order.
func TestBatchMatchesSingles(t *testing.T) {
	spec, _ := testTasks(64)
	c := newClient(t, service.Config{})
	var items []service.BatchItem
	for _, mp := range topomap.Mappers() {
		items = append(items, service.BatchItem{Mapper: string(mp), Seed: 3})
	}
	batch, err := c.MapBatch(context.Background(), service.BatchRequest{
		Topology:   torusSpec(),
		Allocation: service.AllocationSpec{SparseNodes: 8, Seed: 1},
		Tasks:      spec,
		Requests:   items,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != len(items) {
		t.Fatalf("batch returned %d results, want %d", len(batch.Results), len(items))
	}
	for i, item := range items {
		single, err := c.Map(context.Background(), service.MapRequest{
			Topology:   torusSpec(),
			Allocation: service.AllocationSpec{SparseNodes: 8, Seed: 1},
			Tasks:      spec,
			Mapper:     item.Mapper,
			Seed:       item.Seed,
		})
		if err != nil {
			t.Fatalf("%s: %v", item.Mapper, err)
		}
		if !reflect.DeepEqual(batch.Results[i].NodeOf, single.NodeOf) ||
			!reflect.DeepEqual(batch.Results[i].GroupOf, single.GroupOf) {
			t.Fatalf("%s: batch result diverged from single map", item.Mapper)
		}
	}
	// The singles above reused the engine the batch built.
	st, err := c.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits < int64(len(items)) {
		t.Fatalf("cache hits = %d, want >= %d", st.CacheHits, len(items))
	}
}

// TestConcurrentClients hammers one server from many goroutines
// mixing mappers and topologies; every response must equal the serial
// answer (run `make race` to get this under the race detector).
func TestConcurrentClients(t *testing.T) {
	spec, _ := testTasks(64)
	c := newClient(t, service.Config{Workers: 4})
	mappers := []string{"DEF", "UG", "UWH", "UMC"}
	topos := []service.TopologySpec{
		torusSpec(),
		{Kind: "fattree", K: 8},
	}
	type key struct {
		mapper string
		topo   int
	}
	want := map[key]*service.MapResponse{}
	for ti, ts := range topos {
		for _, mp := range mappers {
			resp, err := c.Map(context.Background(), service.MapRequest{
				Topology:   ts,
				Allocation: service.AllocationSpec{SparseNodes: 8, Seed: 1},
				Tasks:      spec,
				Mapper:     mp,
				Seed:       5,
			})
			if err != nil {
				t.Fatalf("%s: %v", mp, err)
			}
			want[key{mp, ti}] = resp
		}
	}
	const goroutines = 16
	const perG = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := key{mappers[(g+i)%len(mappers)], (g + i) % len(topos)}
				resp, err := c.Map(context.Background(), service.MapRequest{
					Topology:   topos[k.topo],
					Allocation: service.AllocationSpec{SparseNodes: 8, Seed: 1},
					Tasks:      spec,
					Mapper:     k.mapper,
					Seed:       5,
				})
				if err != nil {
					errs <- fmt.Errorf("%s: %v", k.mapper, err)
					return
				}
				if !reflect.DeepEqual(resp.NodeOf, want[k].NodeOf) ||
					!reflect.DeepEqual(resp.GroupOf, want[k].GroupOf) {
					errs <- fmt.Errorf("%s on topo %d: concurrent response diverged", k.mapper, k.topo)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st, err := c.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.InFlight != 0 {
		t.Fatalf("in_flight = %d after drain", st.InFlight)
	}
	if st.Errors != 0 {
		t.Fatalf("errors = %d", st.Errors)
	}
}

// TestCacheChurn cycles more (topology, allocation) pairs than the
// cache holds: every request must still answer correctly, and
// revisiting a resident pair must hit. Every churn request carries a
// distinct solver seed — an identical repeat would be answered by the
// solve memo without consulting the engine cache at all.
func TestCacheChurn(t *testing.T) {
	spec, _ := testTasks(32)
	c := newClient(t, service.Config{CacheSize: 2})
	seeds := []int64{1, 2, 3, 4}
	for round := 0; round < 3; round++ {
		for _, seed := range seeds {
			resp, err := c.Map(context.Background(), service.MapRequest{
				Topology:   torusSpec(),
				Allocation: service.AllocationSpec{SparseNodes: 4, Seed: seed},
				Tasks:      spec,
				Mapper:     "UWH",
				Seed:       int64(10*round) + seed,
			})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if resp.CacheHit {
				t.Fatalf("seed %d: unexpected cache hit while churning 4 pairs through 2 slots", seed)
			}
			if resp.Metrics.WH <= 0 {
				t.Fatalf("seed %d: degenerate WH", seed)
			}
		}
	}
	// Back-to-back repeats of one pair hit.
	for i := 0; i < 2; i++ {
		resp, err := c.Map(context.Background(), service.MapRequest{
			Topology:   torusSpec(),
			Allocation: service.AllocationSpec{SparseNodes: 4, Seed: 1},
			Tasks:      spec,
			Mapper:     "UWH",
			Seed:       1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 && !resp.CacheHit {
			t.Fatal("repeated (topology, allocation) pair missed the cache")
		}
	}
	st, err := c.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheEntries > 2 {
		t.Fatalf("cache grew past capacity: %d entries", st.CacheEntries)
	}
	if st.CacheMisses < int64(len(seeds)) {
		t.Fatalf("cache misses = %d, want >= %d (churn)", st.CacheMisses, len(seeds))
	}
}

// slowMapper blocks long enough for a deadline to fire, then places
// identity — the cancellation-mid-solve fixture.
func init() {
	err := topomap.RegisterMapper(topomap.NewMapper("TEST-SLOW", topomap.MapperCaps{},
		func(in topomap.MapperInput) ([]int32, error) {
			time.Sleep(500 * time.Millisecond)
			nodeOf := make([]int32, in.Coarse.N())
			copy(nodeOf, in.Alloc.Nodes)
			return nodeOf, nil
		}))
	if err != nil {
		panic(err)
	}
}

// TestCancellationMidSolve sends a request whose deadline expires
// while the mapper stage is still running: the response must come
// back promptly as a timeout, the worker slot must be reclaimed, and
// the server must keep serving.
func TestCancellationMidSolve(t *testing.T) {
	spec, _ := testTasks(32)
	c := newClient(t, service.Config{Workers: 1})
	began := time.Now()
	_, err := c.Map(context.Background(), service.MapRequest{
		Topology:   torusSpec(),
		Allocation: service.AllocationSpec{SparseNodes: 4, Seed: 1},
		Tasks:      spec,
		Mapper:     "TEST-SLOW",
		Seed:       1,
		TimeoutMS:  50,
	})
	if err == nil {
		t.Fatal("want timeout error from a 500ms solve under a 50ms deadline")
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("want deadline error, got %v", err)
	}
	if waited := time.Since(began); waited > 400*time.Millisecond {
		t.Fatalf("timeout response took %s; the handler must not wait out the solve", waited)
	}
	// The single worker slot frees once the abandoned solve finishes;
	// the next request queues for it and succeeds.
	resp, err := c.Map(context.Background(), service.MapRequest{
		Topology:   torusSpec(),
		Allocation: service.AllocationSpec{SparseNodes: 4, Seed: 1},
		Tasks:      spec,
		Mapper:     "UWH",
		Seed:       1,
	})
	if err != nil {
		t.Fatalf("server unserviceable after a cancelled solve: %v", err)
	}
	if resp.Metrics.WH <= 0 {
		t.Fatal("degenerate WH after cancellation")
	}
	st, err := c.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Timeouts < 1 {
		t.Fatalf("timeouts counter = %d, want >= 1", st.Timeouts)
	}
}

// TestMappersEndpoint checks the capability listing: all built-ins
// present with the flags the engine dispatches on.
func TestMappersEndpoint(t *testing.T) {
	rec := httptest.NewRecorder()
	service.New(service.Config{}).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/mappers", nil))
	var out service.MappersResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("GET /v1/mappers: status %d, %v", rec.Code, err)
	}
	caps := map[string]struct{ msg, multi, block bool }{}
	for _, in := range out.Mappers {
		caps[in.Name] = struct{ msg, multi, block bool }{
			in.Caps.NeedsMessageGraph, in.Caps.NeedsMultipath, in.Caps.BlockGrouping,
		}
	}
	for _, mp := range topomap.Mappers() {
		if _, ok := caps[string(mp)]; !ok {
			t.Fatalf("mappers listing misses %s", mp)
		}
	}
	if !caps["DEF"].block {
		t.Fatal("DEF must declare block_grouping")
	}
	if !caps["UMMC"].msg {
		t.Fatal("UMMC must declare needs_message_graph")
	}
	if !caps["UMCA"].multi {
		t.Fatal("UMCA must declare needs_multipath")
	}
}

// TestRankfileRoundTrip asks for the MPICH_RANK_ORDER text and
// re-derives the placement from it.
func TestRankfileRoundTrip(t *testing.T) {
	spec, _ := testTasks(64)
	c := newClient(t, service.Config{})
	resp, err := c.Map(context.Background(), service.MapRequest{
		Topology:   torusSpec(),
		Allocation: service.AllocationSpec{Nodes: []int32{3, 17, 41, 90}, ProcsPerNode: []int{16}},
		Tasks:      spec,
		Mapper:     "UWH",
		Seed:       1,
		Rankfile:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(resp.Rankfile, "# MPICH_RANK_ORDER") {
		t.Fatalf("rankfile payload malformed: %q", resp.Rankfile)
	}
	order, err := topomap.ReadRankOrder(strings.NewReader(resp.Rankfile))
	if err != nil {
		t.Fatal(err)
	}
	a := &topomap.Allocation{Nodes: resp.AllocNodes, ProcsPerNode: []int{16, 16, 16, 16}}
	pl, err := topomap.PlacementFromRankOrder(order, a)
	if err != nil {
		t.Fatal(err)
	}
	// The realized placement puts every task on the node the response
	// mapped it to.
	for task, g := range resp.GroupOf {
		if pl.Node(int32(task)) != resp.NodeOf[g] {
			t.Fatalf("task %d realized on node %d, mapped to %d", task, pl.Node(int32(task)), resp.NodeOf[g])
		}
	}
}

// TestWireErrors walks the error surface: malformed payloads and
// invalid specs must come back as clean HTTP errors, not hangs or
// panics.
func TestWireErrors(t *testing.T) {
	spec, _ := testTasks(32)
	c := newClient(t, service.Config{})
	good := service.MapRequest{
		Topology:   torusSpec(),
		Allocation: service.AllocationSpec{SparseNodes: 4, Seed: 1},
		Tasks:      spec,
		Mapper:     "UWH",
	}
	cases := []struct {
		name   string
		mutate func(service.MapRequest) service.MapRequest
		want   string
	}{
		{"unknown mapper", func(r service.MapRequest) service.MapRequest { r.Mapper = "NOPE"; return r }, "unknown mapper"},
		{"unknown topology", func(r service.MapRequest) service.MapRequest { r.Topology.Kind = "hypercube"; return r }, "unknown kind"},
		{"missing allocation", func(r service.MapRequest) service.MapRequest { r.Allocation = service.AllocationSpec{}; return r }, "nodes or sparse_nodes"},
		{"ambiguous allocation", func(r service.MapRequest) service.MapRequest {
			r.Allocation = service.AllocationSpec{Nodes: []int32{0}, SparseNodes: 2}
			return r
		}, "not both"},
		{"node out of range", func(r service.MapRequest) service.MapRequest {
			r.Allocation = service.AllocationSpec{Nodes: []int32{9999}}
			return r
		}, "outside"},
		{"too many tasks", func(r service.MapRequest) service.MapRequest {
			r.Allocation = service.AllocationSpec{Nodes: []int32{0}, ProcsPerNode: []int{1}}
			return r
		}, "exceed"},
		{"bad edge", func(r service.MapRequest) service.MapRequest {
			r.Tasks = service.TaskGraphSpec{N: 2, Edges: [][3]int64{{0, 5, 1}}}
			return r
		}, "out of"},
		// Resource bombs: tiny payloads whose derived cost would OOM
		// the daemon must be rejected up front.
		{"giant torus", func(r service.MapRequest) service.MapRequest {
			r.Topology = service.TopologySpec{Kind: "torus", Dims: []int{2000, 2000, 2000}}
			return r
		}, "service limit"},
		{"giant fattree", func(r service.MapRequest) service.MapRequest {
			r.Topology = service.TopologySpec{Kind: "fattree", K: 4096}
			return r
		}, "service limit"},
		{"giant dragonfly", func(r service.MapRequest) service.MapRequest {
			r.Topology = service.TopologySpec{Kind: "dragonfly", H: 512}
			return r
		}, "service limit"},
		{"giant task count", func(r service.MapRequest) service.MapRequest {
			r.Tasks = service.TaskGraphSpec{N: 2_000_000_000}
			return r
		}, "service limit"},
	}
	for _, tc := range cases {
		_, err := c.Map(context.Background(), tc.mutate(good))
		if err == nil {
			t.Fatalf("%s: want error", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if _, err := c.Status(context.Background()); err != nil {
		t.Fatalf("server unserviceable after error storm: %v", err)
	}
}

// TestOverTheWire runs the same request through a real TCP listener
// and through the in-process transport: byte-identical protocol, so
// identical results.
func TestOverTheWire(t *testing.T) {
	spec, _ := testTasks(64)
	srv := service.New(service.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := service.MapRequest{
		Topology:   service.TopologySpec{Kind: "dragonfly", H: 3},
		Allocation: service.AllocationSpec{SparseNodes: 4, Seed: 2},
		Tasks:      spec,
		Mapper:     "UMC",
		Seed:       9,
	}
	wire, err := client.New(ts.URL, nil).Map(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	inproc, err := client.InProcess(srv.Handler()).Map(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wire.NodeOf, inproc.NodeOf) || !reflect.DeepEqual(wire.GroupOf, inproc.GroupOf) {
		t.Fatal("wire and in-process transports diverged")
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: %s", hz.Status)
	}
	st, err := client.New(ts.URL, nil).Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests < 2 || st.LatencySamples < 1 {
		t.Fatalf("statusz counters not live: %+v", st)
	}
}

// TestParallelismDeterminism: the wire-level parallelism field may
// change latency only — placements, metrics and the rankfile must be
// byte-identical to the serial solve, including values far above the
// server cap (which clamp instead of erroring).
func TestParallelismDeterminism(t *testing.T) {
	spec, _ := testTasks(64)
	c := newClient(t, service.Config{Workers: 4})
	// A fully occupied allocation (4 nodes x 16 procs = 64 tasks)
	// keeps every placement rankfile-realizable.
	req := service.MapRequest{
		Topology:   torusSpec(),
		Allocation: service.AllocationSpec{SparseNodes: 4, Seed: 1},
		Tasks:      spec,
		Mapper:     "UWH",
		Refine:     true,
		Seed:       7,
		Rankfile:   true,
	}
	base, err := c.Map(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4, 1000} {
		req.Parallelism = p
		got, err := c.Map(context.Background(), req)
		if err != nil {
			t.Fatalf("parallelism=%d: %v", p, err)
		}
		if !reflect.DeepEqual(got.NodeOf, base.NodeOf) ||
			!reflect.DeepEqual(got.GroupOf, base.GroupOf) ||
			got.Rankfile != base.Rankfile {
			t.Fatalf("parallelism=%d: response diverged from serial", p)
		}
	}

	// The full pipeline (partitioned grouping + congestion refinement)
	// must agree too; UMC placements are compared without a rankfile,
	// which SMP block filling cannot realize for them here.
	umc := service.MapRequest{
		Topology:   torusSpec(),
		Allocation: service.AllocationSpec{SparseNodes: 8, Seed: 1},
		Tasks:      spec,
		Mapper:     "UMC",
		Seed:       7,
	}
	ubase, err := c.Map(context.Background(), umc)
	if err != nil {
		t.Fatal(err)
	}
	umc.Parallelism = 4
	ugot, err := c.Map(context.Background(), umc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ugot.NodeOf, ubase.NodeOf) || !reflect.DeepEqual(ugot.GroupOf, ubase.GroupOf) {
		t.Fatal("UMC diverged under parallelism")
	}
}

// TestParallelismSlotAccounting: concurrent parallel requests on a
// small pool must all complete (the clamped multi-slot acquisition
// cannot deadlock) and batches with parallelism keep matching their
// serial counterparts.
func TestParallelismSlotAccounting(t *testing.T) {
	spec, _ := testTasks(64)
	c := newClient(t, service.Config{Workers: 3, MaxParallelism: 2})
	base, err := c.Map(context.Background(), service.MapRequest{
		Topology:   torusSpec(),
		Allocation: service.AllocationSpec{SparseNodes: 8, Seed: 1},
		Tasks:      spec,
		Mapper:     "UWH",
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	diverged := make([]bool, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := c.Map(context.Background(), service.MapRequest{
				Topology:    torusSpec(),
				Allocation:  service.AllocationSpec{SparseNodes: 8, Seed: 1},
				Tasks:       spec,
				Mapper:      "UWH",
				Seed:        3,
				Parallelism: 2,
			})
			if err != nil {
				errs[i] = err
				return
			}
			diverged[i] = !reflect.DeepEqual(resp.NodeOf, base.NodeOf)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if diverged[i] {
			t.Fatalf("request %d diverged under concurrent parallel solves", i)
		}
	}

	// Batch with parallelism matches the batch without.
	items := []service.BatchItem{{Mapper: "UWH", Seed: 3}, {Mapper: "UMC", Seed: 3}}
	serial, err := c.MapBatch(context.Background(), service.BatchRequest{
		Topology:   torusSpec(),
		Allocation: service.AllocationSpec{SparseNodes: 8, Seed: 1},
		Tasks:      spec,
		Requests:   items,
	})
	if err != nil {
		t.Fatal(err)
	}
	par, err := c.MapBatch(context.Background(), service.BatchRequest{
		Topology:    torusSpec(),
		Allocation:  service.AllocationSpec{SparseNodes: 8, Seed: 1},
		Tasks:       spec,
		Requests:    items,
		Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Results {
		if !reflect.DeepEqual(par.Results[i].NodeOf, serial.Results[i].NodeOf) {
			t.Fatalf("batch item %d diverged with parallelism", i)
		}
	}

	st, err := c.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxParallelism != 2 {
		t.Fatalf("max_parallelism = %d, want 2", st.MaxParallelism)
	}
}

// TestStatuszCacheEvictions: churning more engines than the cache
// holds must surface as a non-zero eviction counter — the operator's
// signal that the cached-path win is not being realized.
func TestStatuszCacheEvictions(t *testing.T) {
	spec, _ := testTasks(32)
	c := newClient(t, service.Config{CacheSize: 2})
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		if _, err := c.Map(context.Background(), service.MapRequest{
			Topology:   torusSpec(),
			Allocation: service.AllocationSpec{SparseNodes: 4, Seed: seed},
			Tasks:      spec,
			Mapper:     "DEF",
			Seed:       1,
		}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	st, err := c.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheMisses != 5 {
		t.Fatalf("cache_misses = %d, want 5", st.CacheMisses)
	}
	if st.CacheEvictions != 3 {
		t.Fatalf("cache_evictions = %d, want 3 (5 builds through 2 slots)", st.CacheEvictions)
	}
	if st.CacheEntries != 2 {
		t.Fatalf("cache_entries = %d, want 2", st.CacheEntries)
	}
}
