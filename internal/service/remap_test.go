package service_test

// Wire-level tests of POST /v1/remap: the fingerprint flow (map →
// remap → chained remap), equivalence to the library's RunRemap,
// the 404 surface for unknown or evicted fingerprints, request
// validation, and the /statusz remap counters.

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	topomap "repro"
	"repro/internal/service"
	"repro/internal/service/client"
)

// TestRemapWire walks the full fingerprint flow: a /v1/map solve
// returns a fingerprint, a single-node-death delta remaps it warm
// (reusing the whole surviving route cache), the result matches a
// direct Engine.RunRemap, and the fresh fingerprint chains into a
// second delta without re-sending the task graph.
func TestRemapWire(t *testing.T) {
	spec, tg := testTasks(64)
	c := newClient(t, service.Config{})

	mapped, err := c.Map(context.Background(), service.MapRequest{
		Topology:   torusSpec(),
		Allocation: service.AllocationSpec{SparseNodes: 8, Seed: 1},
		Tasks:      spec,
		Mapper:     "UWH",
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mapped.Fingerprint == "" {
		t.Fatal("map response carries no fingerprint")
	}

	dead := mapped.AllocNodes[3]
	remapped, err := c.Remap(context.Background(), service.RemapRequest{
		Fingerprint: mapped.Fingerprint,
		Delta:       topomap.AllocationDelta{Remove: []int32{dead}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(remapped.AllocNodes) != len(mapped.AllocNodes)-1 {
		t.Fatalf("post-delta allocation has %d nodes, want %d", len(remapped.AllocNodes), len(mapped.AllocNodes)-1)
	}
	for _, m := range remapped.AllocNodes {
		if m == dead {
			t.Fatalf("removed node %d still allocated", dead)
		}
	}
	// A pure removal keeps every surviving pair's routes verbatim.
	if remapped.PairsTotal == 0 || remapped.PairsReused != remapped.PairsTotal {
		t.Fatalf("pure removal reused %d/%d route pairs, want full reuse", remapped.PairsReused, remapped.PairsTotal)
	}
	if remapped.MigratedTasks <= 0 {
		t.Fatal("killing an occupied node migrated no tasks")
	}
	if remapped.Fingerprint == "" || remapped.Fingerprint == mapped.Fingerprint {
		t.Fatalf("remap fingerprint %q must be fresh", remapped.Fingerprint)
	}
	if !remapped.CacheHit {
		t.Fatal("remap route state comes from a cached result; cache_hit must be true")
	}

	// The wire answer equals the library's: same prev result, same
	// delta, same (server-clamped) worker grant.
	ns, err := torusSpec().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	net, err := ns.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := (service.AllocationSpec{SparseNodes: 8, Seed: 1}).Build(net)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := topomap.NewEngine(net.Topo, a)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := eng.RunSolve(context.Background(), tg, topomap.Solve{Mapper: topomap.UWH, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := eng.RunRemap(context.Background(), tg, prev, topomap.AllocationDelta{Remove: []int32{dead}},
		topomap.RemapSpec{Solve: topomap.Solve{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(remapped.GroupOf, direct.Result.GroupOf) ||
		!reflect.DeepEqual(remapped.NodeOf, direct.Result.NodeOf) {
		t.Fatal("wire remap diverged from direct Engine.RunRemap")
	}
	if remapped.Warm != direct.Warm || remapped.FenceTripped != direct.FenceTripped ||
		remapped.MigratedTasks != direct.MigratedTasks {
		t.Fatalf("wire accounting (warm=%v fence=%v migrated=%d) diverged from direct (%v %v %d)",
			remapped.Warm, remapped.FenceTripped, remapped.MigratedTasks,
			direct.Warm, direct.FenceTripped, direct.MigratedTasks)
	}

	// Deltas chain: the remap's fingerprint resolves without another
	// /v1/map, against the patched engine.
	chained, err := c.Remap(context.Background(), service.RemapRequest{
		Fingerprint: remapped.Fingerprint,
		Delta:       topomap.AllocationDelta{Remove: []int32{remapped.AllocNodes[0]}},
	})
	if err != nil {
		t.Fatalf("chained remap: %v", err)
	}
	if len(chained.AllocNodes) != len(remapped.AllocNodes)-1 {
		t.Fatalf("chained remap allocation has %d nodes, want %d", len(chained.AllocNodes), len(remapped.AllocNodes)-1)
	}

	st, err := c.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.RemapRequests != 2 {
		t.Fatalf("remap_requests = %d, want 2", st.RemapRequests)
	}
	if st.RemapWarm+st.RemapFallbacks == 0 {
		t.Fatal("remap counters flat after two remaps")
	}
	if st.RemapPairsTotal == 0 || st.RemapPairsReused == 0 {
		t.Fatalf("pair-reuse counters flat: %d/%d", st.RemapPairsReused, st.RemapPairsTotal)
	}
	if st.ResultEntries < 3 || st.ResultCapacity != 128 {
		t.Fatalf("result cache = %d/%d, want >= 3 entries at default capacity 128", st.ResultEntries, st.ResultCapacity)
	}
}

// TestRemapUnknownFingerprint pins the 404 surface: a fingerprint the
// server has never issued (or has evicted) must say so cleanly.
func TestRemapUnknownFingerprint(t *testing.T) {
	c := newClient(t, service.Config{})
	_, err := c.Remap(context.Background(), service.RemapRequest{
		Fingerprint: "map:deadbeef",
		Delta:       topomap.AllocationDelta{Remove: []int32{0}},
	})
	if err == nil {
		t.Fatal("unknown fingerprint accepted")
	}
	if !strings.Contains(err.Error(), "unknown fingerprint") || !strings.Contains(err.Error(), "404") {
		t.Fatalf("err = %v, want a 404 naming the unknown fingerprint", err)
	}
}

// TestRemapEviction: the result LRU is bounded, and falling out of it
// invalidates the fingerprint — the client's cue to re-solve.
func TestRemapEviction(t *testing.T) {
	spec, _ := testTasks(64)
	c := newClient(t, service.Config{ResultCacheSize: 1})
	first, err := c.Map(context.Background(), service.MapRequest{
		Topology:   torusSpec(),
		Allocation: service.AllocationSpec{SparseNodes: 8, Seed: 1},
		Tasks:      spec,
		Mapper:     "UWH",
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A second solve on a different allocation evicts the first result.
	if _, err := c.Map(context.Background(), service.MapRequest{
		Topology:   torusSpec(),
		Allocation: service.AllocationSpec{SparseNodes: 8, Seed: 2},
		Tasks:      spec,
		Mapper:     "UWH",
		Seed:       7,
	}); err != nil {
		t.Fatal(err)
	}
	_, err = c.Remap(context.Background(), service.RemapRequest{
		Fingerprint: first.Fingerprint,
		Delta:       topomap.AllocationDelta{Remove: []int32{first.AllocNodes[0]}},
	})
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("err = %v, want 404 after eviction", err)
	}
}

// TestRemapValidation walks the fail-fast surface: every malformed
// request costs a clean 400 before any worker slot is held.
func TestRemapValidation(t *testing.T) {
	spec, _ := testTasks(64)
	c := newClient(t, service.Config{})
	mapped, err := c.Map(context.Background(), service.MapRequest{
		Topology:   torusSpec(),
		Allocation: service.AllocationSpec{SparseNodes: 8, Seed: 1},
		Tasks:      spec,
		Mapper:     "UWH",
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	good := service.RemapRequest{
		Fingerprint: mapped.Fingerprint,
		Delta:       topomap.AllocationDelta{Remove: []int32{mapped.AllocNodes[0]}},
	}
	cases := []struct {
		name   string
		mutate func(service.RemapRequest) service.RemapRequest
		want   string
	}{
		{"missing fingerprint", func(r service.RemapRequest) service.RemapRequest { r.Fingerprint = ""; return r }, "missing fingerprint"},
		{"empty delta", func(r service.RemapRequest) service.RemapRequest { r.Delta = topomap.AllocationDelta{}; return r }, "empty delta"},
		{"wire-set workers", func(r service.RemapRequest) service.RemapRequest { r.Solve.Workers = 4; return r }, "server-controlled"},
		{"wire-set solve timeout", func(r service.RemapRequest) service.RemapRequest { r.Solve.TimeoutMS = 100; return r }, "server-controlled"},
		{"unknown mapper", func(r service.RemapRequest) service.RemapRequest { r.Solve.Mapper = "NOPE"; return r }, "unknown mapper"},
		{"unknown objective", func(r service.RemapRequest) service.RemapRequest {
			r.Objective = topomap.MinimizeMetric("bogus")
			return r
		}, "unknown objective metric"},
		{"delta naming a stranger", func(r service.RemapRequest) service.RemapRequest {
			r.Delta = topomap.AllocationDelta{Remove: []int32{-3}}
			return r
		}, "not allocated"},
	}
	for _, tc := range cases {
		_, err := c.Remap(context.Background(), tc.mutate(good))
		if err == nil {
			t.Fatalf("%s: want error", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// The good request still works after the error storm.
	if _, err := c.Remap(context.Background(), good); err != nil {
		t.Fatalf("server unserviceable after validation errors: %v", err)
	}
}

// TestRemapRejectsSwitchNode: a delta adding a fat-tree switch or a
// dragonfly router is a client error on both protocols — a 400 from
// allocation validation, not a route built to a non-host that panics
// the solve goroutine and with it the daemon.
func TestRemapRejectsSwitchNode(t *testing.T) {
	spec, _ := testTasks(64)
	for _, fam := range []struct {
		name string
		topo service.TopologySpec
		sw   int32
	}{
		{"fattree", service.TopologySpec{Kind: "fattree", K: 4}, 17},
		{"dragonfly", service.TopologySpec{Kind: "dragonfly", H: 1}, 7},
	} {
		for _, proto := range []struct {
			name string
			p    client.Protocol
		}{{"json", client.ProtoJSON}, {"binary", client.ProtoBinary}} {
			t.Run(fam.name+"/"+proto.name, func(t *testing.T) {
				_, c := protoClient(service.Config{}, proto.p)
				mapped, err := c.Map(context.Background(), service.MapRequest{
					Topology:   fam.topo,
					Allocation: service.AllocationSpec{SparseNodes: 4, Seed: 1},
					Tasks:      spec,
					Mapper:     "UWH",
					Seed:       7,
				})
				if err != nil {
					t.Fatal(err)
				}
				_, err = c.Remap(context.Background(), service.RemapRequest{
					Fingerprint: mapped.Fingerprint,
					Delta:       topomap.AllocationDelta{Add: []topomap.NodeCapacity{{Node: fam.sw, Procs: 16}}},
				})
				if err == nil || !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "out of range") {
					t.Fatalf("remap adding switch node %d: err = %v, want a 400 naming the node out of range", fam.sw, err)
				}
				// The daemon still serves the same fingerprint, and a free
				// host is a valid addition.
				free := int32(0)
				for slices.Contains(mapped.AllocNodes, free) {
					free++
				}
				if _, err := c.Remap(context.Background(), service.RemapRequest{
					Fingerprint: mapped.Fingerprint,
					Delta:       topomap.AllocationDelta{Add: []topomap.NodeCapacity{{Node: free, Procs: 16}}},
				}); err != nil {
					t.Fatalf("remap adding host %d after the rejected delta: %v", free, err)
				}
			})
		}
	}
}
