package topomap

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// Incremental remapping tests: AllocationDelta semantics, fault
// scenarios (node death, rack growth, capacity shrink), route-cache
// reuse, the quality fence, and worker-count determinism (the last
// runs under `make race`).

// remapFixture builds an engine with capacity headroom — 96 tasks on
// 8×16 = 128 slots — so removal deltas stay feasible, plus a finished
// prev mapping to remap from.
func remapFixture(t *testing.T) (*Engine, *TaskGraph, *MapResult) {
	t.Helper()
	tg := ringTaskGraph(96, 4)
	topo := NewHopperTorus(6, 6, 6)
	a, err := SparseAllocation(topo, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := eng.RunSolve(context.Background(), tg, Solve{Mapper: UWH, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return eng, tg, prev
}

// checkRemapPlacement verifies the result is a complete feasible
// placement on the post-delta allocation.
func checkRemapPlacement(t *testing.T, res *RemapResult, tg *TaskGraph) {
	t.Helper()
	a := res.Allocation
	if len(res.Result.GroupOf) != tg.K || len(res.Result.NodeOf) != a.NumNodes() {
		t.Fatalf("placement shape: %d tasks / %d groups, want %d / %d",
			len(res.Result.GroupOf), len(res.Result.NodeOf), tg.K, a.NumNodes())
	}
	load := make([]int, a.NumNodes())
	for tk, g := range res.Result.GroupOf {
		if g < 0 || int(g) >= a.NumNodes() {
			t.Fatalf("task %d has group %d out of range", tk, g)
		}
		load[g]++
	}
	onNode := map[int32]bool{}
	for _, m := range a.Nodes {
		onNode[m] = true
	}
	used := map[int32]bool{}
	for g, m := range res.Result.NodeOf {
		if !onNode[m] {
			t.Fatalf("group %d assigned to node %d outside the allocation", g, m)
		}
		if used[m] {
			t.Fatalf("node %d assigned twice", m)
		}
		used[m] = true
		if load[g] > a.ProcsPerNode[g] {
			t.Fatalf("group %d holds %d tasks, capacity %d", g, load[g], a.ProcsPerNode[g])
		}
	}
}

func TestAllocationDeltaApply(t *testing.T) {
	topo := NewHopperTorus(6, 6, 6)
	a, err := SparseAllocation(topo, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	n0, n1, n2, n3 := a.Nodes[0], a.Nodes[1], a.Nodes[2], a.Nodes[3]
	var free []int32 // nodes outside the allocation
	in := map[int32]bool{n0: true, n1: true, n2: true, n3: true}
	for m := int32(0); len(free) < 2; m++ {
		if !in[m] {
			free = append(free, m)
		}
	}

	t.Run("node death keeps order", func(t *testing.T) {
		next, err := AllocationDelta{Remove: []int32{n1}}.Apply(topo, a)
		if err != nil {
			t.Fatal(err)
		}
		want := []int32{n0, n2, n3}
		if len(next.Nodes) != 3 || next.Nodes[0] != want[0] || next.Nodes[1] != want[1] || next.Nodes[2] != want[2] {
			t.Fatalf("nodes = %v, want %v", next.Nodes, want)
		}
	})
	t.Run("growth appends in add order", func(t *testing.T) {
		next, err := AllocationDelta{Add: []NodeCapacity{{free[0], 16}, {free[1], 8}}}.Apply(topo, a)
		if err != nil {
			t.Fatal(err)
		}
		if next.NumNodes() != 6 || next.Nodes[4] != free[0] || next.Nodes[5] != free[1] {
			t.Fatalf("nodes = %v, want %v appended", next.Nodes, free)
		}
		if next.ProcsPerNode[5] != 8 {
			t.Fatalf("added capacity = %d, want 8", next.ProcsPerNode[5])
		}
	})
	t.Run("capacity zero removes", func(t *testing.T) {
		next, err := AllocationDelta{SetCapacity: []NodeCapacity{{n2, 0}, {n0, 4}}}.Apply(topo, a)
		if err != nil {
			t.Fatal(err)
		}
		if next.NumNodes() != 3 || next.ProcsPerNode[0] != 4 {
			t.Fatalf("nodes = %v procs = %v", next.Nodes, next.ProcsPerNode)
		}
		for _, m := range next.Nodes {
			if m == n2 {
				t.Fatal("zero-capacity node survived")
			}
		}
	})
	t.Run("errors", func(t *testing.T) {
		cases := []struct {
			name string
			d    AllocationDelta
			want string
		}{
			{"empty delta", AllocationDelta{}, "empty allocation delta"},
			{"empties allocation", AllocationDelta{Remove: []int32{n0, n1, n2, n3}}, "empties the allocation"},
			{"remove unallocated", AllocationDelta{Remove: []int32{free[0]}}, "not allocated"},
			{"add allocated", AllocationDelta{Add: []NodeCapacity{{n0, 16}}}, "already allocated"},
			{"add outside topology", AllocationDelta{Add: []NodeCapacity{{9999, 16}}}, "outside the topology"},
			{"add zero capacity", AllocationDelta{Add: []NodeCapacity{{free[0], 0}}}, "capacity 0"},
			{"negative capacity", AllocationDelta{SetCapacity: []NodeCapacity{{n0, -1}}}, "negative capacity"},
			{"named twice", AllocationDelta{Remove: []int32{n0}, SetCapacity: []NodeCapacity{{n0, 4}}}, "twice"},
		}
		for _, tc := range cases {
			_, err := tc.d.Apply(topo, a)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
			}
		}
	})
}

// TestRemapSingleNodeDeath is the acceptance scenario: a 1-node
// removal must reuse >= 90%% of the route-cache pairs, migrate only
// the dead node's tasks, and produce a feasible placement.
func TestRemapSingleNodeDeath(t *testing.T) {
	eng, tg, prev := remapFixture(t)
	dead := eng.Allocation().Nodes[2]
	var deadTasks int
	for _, g := range prev.GroupOf {
		if prev.NodeOf[g] == dead {
			deadTasks++
		}
	}
	res, err := eng.RunRemap(context.Background(), tg, prev, AllocationDelta{Remove: []int32{dead}}, RemapSpec{})
	if err != nil {
		t.Fatal(err)
	}
	checkRemapPlacement(t, res, tg)
	if res.Allocation.NumNodes() != 7 {
		t.Fatalf("allocation has %d nodes, want 7", res.Allocation.NumNodes())
	}
	if res.MigratedTasks != deadTasks {
		t.Fatalf("migrated %d tasks, want the dead node's %d", res.MigratedTasks, deadTasks)
	}
	if res.PairsTotal == 0 || float64(res.PairsReused) < 0.9*float64(res.PairsTotal) {
		t.Fatalf("route-cache reuse %d/%d below 90%%", res.PairsReused, res.PairsTotal)
	}
	// Pure removal: every surviving pair was already tabulated.
	if res.PairsReused != res.PairsTotal {
		t.Fatalf("node removal should reuse all %d pairs, reused %d", res.PairsTotal, res.PairsReused)
	}
	// The returned engine serves the new allocation.
	if res.Engine.Allocation().NumNodes() != 7 {
		t.Fatal("returned engine not on the post-delta allocation")
	}
	if _, err := res.Engine.RunSolve(context.Background(), tg, Solve{Mapper: UWH, Seed: 3}); err != nil {
		t.Fatalf("post-delta engine cannot solve: %v", err)
	}
}

// TestRemapPrevNodeOutsideTopology: a caller-supplied previous result
// may name node ids the topology does not have. Such a group cannot
// survive the delta, so its tasks strand and migrate like a dead
// node's; the remap neither fails nor panics.
func TestRemapPrevNodeOutsideTopology(t *testing.T) {
	eng, tg, prev := remapFixture(t)
	dead := eng.Allocation().Nodes[5]
	for _, bad := range []int32{1 << 30, -5} {
		p := *prev
		p.NodeOf = append([]int32(nil), prev.NodeOf...)
		p.NodeOf[2] = bad
		want := 0
		for _, g := range p.GroupOf {
			if m := p.NodeOf[g]; m == bad || m == dead {
				want++
			}
		}
		res, err := eng.RunRemap(context.Background(), tg, &p, AllocationDelta{Remove: []int32{dead}}, RemapSpec{FenceThreshold: -1})
		if err != nil {
			t.Fatalf("previous node %d: %v", bad, err)
		}
		checkRemapPlacement(t, res, tg)
		if res.MigratedTasks != want {
			t.Fatalf("previous node %d: migrated %d tasks, want %d", bad, res.MigratedTasks, want)
		}
	}
}

func TestRemapRackGrowth(t *testing.T) {
	eng, tg, prev := remapFixture(t)
	in := map[int32]bool{}
	for _, m := range eng.Allocation().Nodes {
		in[m] = true
	}
	var grow []NodeCapacity
	for m := int32(0); len(grow) < 2; m++ {
		if !in[m] {
			grow = append(grow, NodeCapacity{Node: m, Procs: 16})
		}
	}
	res, err := eng.RunRemap(context.Background(), tg, prev, AllocationDelta{Add: grow}, RemapSpec{})
	if err != nil {
		t.Fatal(err)
	}
	checkRemapPlacement(t, res, tg)
	if res.Allocation.NumNodes() != 10 {
		t.Fatalf("allocation has %d nodes, want 10", res.Allocation.NumNodes())
	}
	// Growth strands nobody; the old pairs all survive, the new
	// node's pairs are the only recomputation.
	if res.MigratedTasks != 0 {
		t.Fatalf("growth migrated %d tasks, want 0", res.MigratedTasks)
	}
	oldPairs := 8*8 - 8
	if res.PairsReused != oldPairs {
		t.Fatalf("reused %d pairs, want all %d pre-delta pairs", res.PairsReused, oldPairs)
	}
}

func TestRemapCapacityShrink(t *testing.T) {
	eng, tg, prev := remapFixture(t)
	a := eng.Allocation()
	shrunk := a.Nodes[0]
	var onNode int
	for _, g := range prev.GroupOf {
		if prev.NodeOf[g] == shrunk {
			onNode++
		}
	}
	if onNode < 3 {
		t.Fatalf("fixture: node %d holds %d tasks, need >= 3", shrunk, onNode)
	}
	keep := onNode - 2 // force exactly 2 evictions
	res, err := eng.RunRemap(context.Background(), tg, prev, AllocationDelta{
		SetCapacity: []NodeCapacity{{shrunk, keep}},
	}, RemapSpec{})
	if err != nil {
		t.Fatal(err)
	}
	checkRemapPlacement(t, res, tg)
	if res.Allocation.NumNodes() != 8 {
		t.Fatalf("allocation has %d nodes, want 8 (shrink keeps the node)", res.Allocation.NumNodes())
	}
	if res.MigratedTasks != 2 {
		t.Fatalf("migrated %d tasks, want the 2 evictions", res.MigratedTasks)
	}
	// Capacity-only delta: the node set is unchanged, every pair
	// survives.
	if res.PairsReused != res.PairsTotal {
		t.Fatalf("capacity shrink should reuse all %d pairs, reused %d", res.PairsTotal, res.PairsReused)
	}

	// Shrink to zero behaves exactly like removal.
	res0, err := eng.RunRemap(context.Background(), tg, prev, AllocationDelta{
		SetCapacity: []NodeCapacity{{shrunk, 0}},
	}, RemapSpec{})
	if err != nil {
		t.Fatal(err)
	}
	checkRemapPlacement(t, res0, tg)
	if res0.Allocation.NumNodes() != 7 {
		t.Fatalf("zero-capacity shrink left %d nodes, want 7", res0.Allocation.NumNodes())
	}
	if res0.MigratedTasks != onNode {
		t.Fatalf("migrated %d, want all %d tasks of the zeroed node", res0.MigratedTasks, onNode)
	}
}

func TestRemapEmptyingDeltaRejected(t *testing.T) {
	eng, tg, prev := remapFixture(t)
	_, err := eng.RunRemap(context.Background(), tg, prev, AllocationDelta{
		Remove: append([]int32(nil), eng.Allocation().Nodes...),
	}, RemapSpec{})
	if err == nil || !strings.Contains(err.Error(), "empties the allocation") {
		t.Fatalf("err = %v, want empties-the-allocation rejection", err)
	}
	// Infeasible (but non-empty) deltas are rejected before any work.
	nodes := eng.Allocation().Nodes
	_, err = eng.RunRemap(context.Background(), tg, prev, AllocationDelta{
		Remove: append([]int32(nil), nodes[:len(nodes)-1]...),
	}, RemapSpec{})
	if err == nil || !strings.Contains(err.Error(), "exceed") {
		t.Fatalf("err = %v, want capacity-exceeded rejection", err)
	}
}

// TestRemapFenceThreshold proves the fence triggers exactly at the
// configured threshold: with the threshold set just above the warm
// path's actual regression the fallback must not run, just below it
// the fallback must run — and the winner is whichever scored lower.
func TestRemapFenceThreshold(t *testing.T) {
	eng, tg, prev := remapFixture(t)
	delta := AllocationDelta{Remove: []int32{eng.Allocation().Nodes[2]}}

	// Measure the warm path with the fence disabled.
	free, err := eng.RunRemap(context.Background(), tg, prev, delta, RemapSpec{FenceThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if free.FenceTripped || !free.Warm {
		t.Fatalf("disabled fence tripped: %+v", free)
	}
	if free.PrevScore <= 0 || free.WarmScore <= 0 {
		t.Fatalf("scores not populated: prev %g warm %g", free.PrevScore, free.WarmScore)
	}
	regression := free.WarmScore/free.PrevScore - 1
	if regression <= 0 {
		t.Skipf("warm path improved on prev (regression %g); fence exactness needs a regressing instance", regression)
	}

	// Threshold just above the regression: warm result accepted as is.
	above, err := eng.RunRemap(context.Background(), tg, prev, delta, RemapSpec{FenceThreshold: regression * 1.01})
	if err != nil {
		t.Fatal(err)
	}
	if above.FenceTripped {
		t.Fatalf("fence tripped at threshold %g > regression %g", regression*1.01, regression)
	}
	if !above.Warm || above.WarmScore != free.WarmScore {
		t.Fatalf("warm result changed under a higher threshold: %+v", above)
	}

	// Threshold just below: the cold fallback must run, and the
	// winner is the lower score.
	below, err := eng.RunRemap(context.Background(), tg, prev, delta, RemapSpec{FenceThreshold: regression * 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if !below.FenceTripped {
		t.Fatalf("fence did not trip at threshold %g < regression %g", regression*0.99, regression)
	}
	if below.ColdScore <= 0 {
		t.Fatalf("cold fallback did not report a score: %+v", below)
	}
	wantWarm := free.WarmScore <= below.ColdScore
	if below.Warm != wantWarm {
		t.Fatalf("winner = warm:%v, want warm:%v (warm %g cold %g)", below.Warm, wantWarm, free.WarmScore, below.ColdScore)
	}
	best := below.ColdScore
	if wantWarm {
		best = free.WarmScore
	}
	if got, err := MinimizeMetric("wh").Score(below.Result); err != nil || got != best {
		t.Fatalf("reported result scores %g (err %v), want the winner's %g", got, err, best)
	}
}

// TestRemapDeterministicWorkers is the determinism acceptance: the
// remap output — placement, metrics and fence accounting — is
// byte-identical at workers 1, 2 and 8. Runs under `make race`.
func TestRemapDeterministicWorkers(t *testing.T) {
	eng, tg, prev := remapFixture(t)
	delta := AllocationDelta{Remove: []int32{eng.Allocation().Nodes[2]}}
	run := func(workers int) *RemapResult {
		res, err := eng.RunRemap(context.Background(), tg, prev, delta,
			RemapSpec{Solve: Solve{Workers: workers}, Objective: MinimizeMetric("mc")})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	base := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if got.Warm != base.Warm || got.FenceTripped != base.FenceTripped ||
			got.WarmScore != base.WarmScore || got.ColdScore != base.ColdScore ||
			got.MigratedTasks != base.MigratedTasks || got.PairsReused != base.PairsReused {
			t.Fatalf("workers=%d: remap accounting diverged:\n w1 %+v\n w%d %+v", workers, base, workers, got)
		}
		if got.Result.Metrics != base.Result.Metrics {
			t.Fatalf("workers=%d: metrics diverged", workers)
		}
		if !reflect.DeepEqual(got.Result.GroupOf, base.Result.GroupOf) ||
			!reflect.DeepEqual(got.Result.NodeOf, base.Result.NodeOf) {
			t.Fatalf("workers=%d: placement bytes diverged", workers)
		}
	}
}

func TestRemapValidation(t *testing.T) {
	eng, tg, prev := remapFixture(t)
	delta := AllocationDelta{Remove: []int32{eng.Allocation().Nodes[0]}}
	ctx := context.Background()
	if _, err := eng.RunRemap(ctx, nil, prev, delta, RemapSpec{}); err == nil {
		t.Fatal("nil task graph accepted")
	}
	if _, err := eng.RunRemap(ctx, tg, nil, delta, RemapSpec{}); err == nil {
		t.Fatal("nil previous result accepted")
	}
	bad := &MapResult{Mapper: UWH, GroupOf: prev.GroupOf[:10], NodeOf: prev.NodeOf}
	if _, err := eng.RunRemap(ctx, tg, bad, delta, RemapSpec{}); err == nil {
		t.Fatal("mismatched GroupOf length accepted")
	}
	if _, err := eng.RunRemap(ctx, tg, prev, delta, RemapSpec{Solve: Solve{TimeoutMS: -1}}); err == nil {
		t.Fatal("negative timeout accepted")
	}
	if _, err := eng.RunRemap(ctx, tg, prev, delta, RemapSpec{Objective: Objective{Minimize: "nope"}}); err == nil {
		t.Fatal("unknown objective metric accepted")
	}
	// The cold fallback's mapper is validated up front, even with the
	// fence off, when the fallback can never run: an unknown name, and
	// a geometric mapper on a task graph without coordinates.
	for _, mp := range []Mapper{"NOPE", GEOM} {
		_, err := eng.RunRemap(ctx, tg, prev, delta, RemapSpec{Solve: Solve{Mapper: mp}, FenceThreshold: -1})
		if err == nil || !strings.Contains(err.Error(), "remap cold fallback") {
			t.Fatalf("fallback mapper %s with the fence off: err = %v, want a cold-fallback rejection", mp, err)
		}
	}
}

// TestSwitchNodesRejected: on a fat tree or a dragonfly only ids below
// Hosts() are placement-eligible; the ids above are switches and
// routers. NewEngine must reject an allocation naming one, and a
// remap delta adding one must fail with an error before any route is
// built to it (a route to a switch panics in the topology).
func TestSwitchNodesRejected(t *testing.T) {
	ft, err := NewFatTree(4, 10e9, 2)
	if err != nil {
		t.Fatal(err)
	}
	df, err := NewDragonfly(1, 10e9, 5e9, 4e9)
	if err != nil {
		t.Fatal(err)
	}
	tg := ringTaskGraph(32, 4)
	for _, tc := range []struct {
		name  string
		topo  Topology
		hosts int
		sw    int32
	}{
		{"fattree k=4", ft, 16, 17},
		{"dragonfly h=1", df, 6, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.topo.Nodes() <= tc.hosts {
				t.Fatalf("%d nodes, want switches above the %d hosts", tc.topo.Nodes(), tc.hosts)
			}
			for _, bad := range []int32{int32(tc.hosts), tc.sw, int32(tc.topo.Nodes() - 1)} {
				a := &Allocation{Nodes: []int32{0, bad}, ProcsPerNode: []int{16, 16}}
				if _, err := NewEngine(tc.topo, a); err == nil || !strings.Contains(err.Error(), "out of range") {
					t.Fatalf("NewEngine on node %d: err = %v, want out of range", bad, err)
				}
			}
			a := &Allocation{Nodes: []int32{0, 1, 2}, ProcsPerNode: []int{16, 16, 16}}
			eng, err := NewEngine(tc.topo, a)
			if err != nil {
				t.Fatal(err)
			}
			prev, err := eng.RunSolve(context.Background(), tg, Solve{Mapper: UWH, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			delta := AllocationDelta{Add: []NodeCapacity{{tc.sw, 16}}}
			if _, err := delta.Apply(tc.topo, a); err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("Apply adding node %d: err = %v, want out of range", tc.sw, err)
			}
			if _, err := eng.RunRemap(context.Background(), tg, prev, delta, RemapSpec{}); err == nil {
				t.Fatalf("RunRemap adding switch node %d succeeded", tc.sw)
			}
			// The last host is still a valid addition.
			last := AllocationDelta{Add: []NodeCapacity{{int32(tc.hosts - 1), 16}}}
			if _, err := eng.RunRemap(context.Background(), tg, prev, last, RemapSpec{}); err != nil {
				t.Fatalf("RunRemap adding host %d: %v", tc.hosts-1, err)
			}
		})
	}
}

// FuzzAllocationDelta decodes its input as a JSON AllocationDelta and
// applies it to small torus, fat-tree and dragonfly allocations. Apply
// must either fail or return an allocation NewEngine accepts, and
// neither may panic — a delta is untrusted input on /v1/remap and
// /v2/remap. The first two seeds add a fat-tree switch (17) and a
// dragonfly router (7), which Apply must reject: a route table built
// to a non-host panics in the topology.
func FuzzAllocationDelta(f *testing.F) {
	for _, seed := range []string{
		`{"add":[{"node":17,"procs":16}]}`,
		`{"add":[{"node":7,"procs":16}]}`,
		`{"remove":[0],"add":[{"node":5,"procs":8}]}`,
		`{"set_capacity":[{"node":1,"procs":0},{"node":2,"procs":4}]}`,
		`{"add":[{"node":-1,"procs":16}]}`,
		`{"remove":[2],"set_capacity":[{"node":2,"procs":4}]}`,
		`{"remove":[0,1,2]}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	ft, err := NewFatTree(4, 10e9, 2)
	if err != nil {
		f.Fatal(err)
	}
	df, err := NewDragonfly(1, 10e9, 5e9, 4e9)
	if err != nil {
		f.Fatal(err)
	}
	topos := []Topology{NewHopperTorus(4, 4, 4), ft, df}
	f.Fuzz(func(t *testing.T, data []byte) {
		var d AllocationDelta
		if json.Unmarshal(data, &d) != nil {
			return
		}
		for _, topo := range topos {
			prev := &Allocation{Nodes: []int32{0, 1, 2}, ProcsPerNode: []int{16, 16, 16}, Speeds: []float64{1, 2, 1}}
			next, err := d.Apply(topo, prev)
			if err != nil {
				continue
			}
			if _, err := NewEngine(topo, next); err != nil {
				t.Fatalf("%s: Apply(%s) returned %+v, which NewEngine rejects: %v", TopologyFingerprint(topo), data, next, err)
			}
		}
	})
}
