package taskgraph

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/arena"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

func tridiag(n int) *matrix.CSR {
	var ri, ci []int32
	for i := 0; i < n; i++ {
		for _, j := range []int{i - 1, i, i + 1} {
			if j >= 0 && j < n {
				ri = append(ri, int32(i))
				ci = append(ci, int32(j))
			}
		}
	}
	return matrix.FromCOO(n, n, ri, ci)
}

func TestBuildTridiagonal(t *testing.T) {
	m := tridiag(8)
	part := []int32{0, 0, 0, 0, 1, 1, 1, 1}
	tg, err := Build(m, part, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Row 4 (part 1) needs x_3 (part 0); row 3 (part 0) needs x_4.
	// So volumes 0->1: {x_3}=1 and 1->0: {x_4}=1.
	if tg.G.M() != 2 {
		t.Fatalf("M = %d, want 2", tg.G.M())
	}
	met := tg.PartitionMetrics()
	if met.TV != 2 || met.TM != 2 || met.MSV != 1 || met.MSM != 1 {
		t.Fatalf("metrics = %+v", met)
	}
	// Compute loads: each part owns half the nonzeros (22 total).
	if tg.G.VertexWeight(0)+tg.G.VertexWeight(1) != int64(m.NNZ()) {
		t.Fatal("compute loads don't sum to nnz")
	}
}

func TestBuildCountsDistinctEntries(t *testing.T) {
	// Column j used by two rows of the same part: volume counted once.
	// Matrix: rows 0,1 (part 1) both have a nonzero in column 2 (part 0).
	m := matrix.FromCOO(3, 3,
		[]int32{0, 1, 2, 0, 1},
		[]int32{2, 2, 2, 0, 1})
	part := []int32{1, 1, 0}
	tg, err := Build(m, part, 2)
	if err != nil {
		t.Fatal(err)
	}
	met := tg.PartitionMetrics()
	if met.TV != 1 {
		t.Fatalf("TV = %d, want 1 (x_2 sent once to part 1)", met.TV)
	}
	if met.TM != 1 {
		t.Fatalf("TM = %d, want 1", met.TM)
	}
}

func TestTVMatchesHypergraphConnectivity(t *testing.T) {
	// TV from the task graph must equal connectivity-1 of the
	// column-net hypergraph — the identity the paper's model rests on.
	m := gen.Uniform(300, 4, 3)
	h := hypergraph.ColumnNet(m)
	const k = 7
	part := make([]int32, m.Rows)
	for i := range part {
		part[i] = int32((i * 13) % k)
	}
	tg, err := Build(m, part, k)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tg.PartitionMetrics().TV, h.Connectivity(part, k); got != want {
		t.Fatalf("task graph TV %d != hypergraph connectivity %d", got, want)
	}
}

func TestBuildErrors(t *testing.T) {
	m := tridiag(4)
	if _, err := Build(m, []int32{0, 0}, 2); err == nil {
		t.Fatal("want error for short part vector")
	}
	if _, err := Build(m, []int32{0, 0, 9, 0}, 2); err == nil {
		t.Fatal("want error for out-of-range part")
	}
	rect := matrix.FromCOO(2, 3, []int32{0}, []int32{2})
	if _, err := Build(rect, []int32{0, 0}, 1); err == nil {
		t.Fatal("want error for non-square matrix")
	}
}

func TestSymmetricCombinesDirections(t *testing.T) {
	m := tridiag(8)
	part := []int32{0, 0, 0, 0, 1, 1, 1, 1}
	tg, _ := Build(m, part, 2)
	sym := tg.G.Symmetrize(nil)
	// c(0,1) = vol(0->1) + vol(1->0) = 2.
	if sym.M() != 2 {
		t.Fatalf("sym M = %d, want 2", sym.M())
	}
	if sym.EW[0] != 2 {
		t.Fatalf("sym weight = %d, want 2", sym.EW[0])
	}
}

func TestGroupBlocks(t *testing.T) {
	group, err := GroupBlocks(8, []int64{3, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 0, 0, 1, 1, 1, 2, 2}
	for i := range want {
		if group[i] != want[i] {
			t.Fatalf("group = %v, want %v", group, want)
		}
	}
	if _, err := GroupBlocks(10, []int64{4, 4}); err == nil {
		t.Fatal("want error when capacity insufficient")
	}
}

func TestGroupTasksRespectsCapacities(t *testing.T) {
	m := gen.Mesh2D(16, 16, 5) // 256 rows
	const k = 64
	part := make([]int32, m.Rows)
	for i := range part {
		part[i] = int32(i % k) // poor partition, but legal
	}
	tg, err := Build(m, part, k)
	if err != nil {
		t.Fatal(err)
	}
	caps := make([]int64, 16)
	for i := range caps {
		caps[i] = 4 // 16 nodes x 4 procs = 64 tasks
	}
	// GroupTasks only reads the symmetrized graph it is handed — the
	// engine contracts the same graph afterwards — and groups the same
	// on a worker pool and an arena as serially with fresh buffers.
	sym := tg.G.Symmetrize(nil)
	before := sym.Clone()
	group, err := GroupTasks(sym, caps, 5, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sym, before) {
		t.Fatal("GroupTasks wrote the graph it was handed")
	}
	again, err := GroupTasks(sym, caps, 5, parallel.NewGroup(context.Background(), 2), arena.New(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, group) {
		t.Fatal("GroupTasks grouped differently on a worker pool and an arena")
	}
	counts := make([]int64, 16)
	for _, g := range group {
		counts[g]++
	}
	for i, c := range counts {
		if c > caps[i] {
			t.Fatalf("group %d has %d tasks, capacity %d", i, c, caps[i])
		}
	}
}

func TestGroupTasksKeepsCommunicatorsTogether(t *testing.T) {
	// A path-structured task graph grouped into nodes should mostly
	// put consecutive tasks in the same group: inter-group volume
	// should be far below total volume.
	m := tridiag(64)
	part := make([]int32, 64)
	for i := range part {
		part[i] = int32(i) // one row per task
	}
	tg, err := Build(m, part, 64)
	if err != nil {
		t.Fatal(err)
	}
	caps := make([]int64, 8)
	for i := range caps {
		caps[i] = 8
	}
	sym := tg.G.Symmetrize(nil)
	group, err := GroupTasks(sym, caps, 3, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	coarse := graph.Contract(sym, group, 8, nil)
	interVol := coarse.TotalEdgeWeight() / 2
	totalVol := tg.PartitionMetrics().TV
	if interVol*3 > totalVol {
		t.Fatalf("grouping kept too little locality: inter %d of %d", interVol, totalVol)
	}
}

func TestCoarseGraphAggregates(t *testing.T) {
	m := tridiag(8)
	part := make([]int32, 8)
	for i := range part {
		part[i] = int32(i)
	}
	tg, _ := Build(m, part, 8)
	group := []int32{0, 0, 0, 0, 1, 1, 1, 1}
	coarse := graph.Contract(tg.G.Symmetrize(nil), group, 2, nil)
	if coarse.N() != 2 {
		t.Fatalf("coarse N = %d", coarse.N())
	}
	// Only tasks 3<->4 communicate across groups: volume 1 each way,
	// symmetrized to c=2 stored in both directions.
	if coarse.M() != 2 || coarse.EW[0] != 2 {
		t.Fatalf("coarse M=%d w=%d, want 2,2", coarse.M(), coarse.EW[0])
	}
	// Vertex weights: sum of compute loads halves.
	if coarse.VertexWeight(0)+coarse.VertexWeight(1) != int64(m.NNZ()) {
		t.Fatal("coarse compute loads don't sum")
	}
}

func TestCoarseMessageGraph(t *testing.T) {
	m := tridiag(8)
	part := make([]int32, 8)
	for i := range part {
		part[i] = int32(i)
	}
	tg, _ := Build(m, part, 8)
	group := []int32{0, 0, 0, 0, 1, 1, 1, 1}
	msg := CoarseMessageGraph(nil, tg, group, 2)
	// Fine messages crossing groups: 3->4 and 4->3, i.e. 2 directed
	// messages; symmetrized count = 2 on each stored direction.
	if msg.N() != 2 || msg.M() != 2 {
		t.Fatalf("msg graph N=%d M=%d", msg.N(), msg.M())
	}
	if msg.EW[0] != 2 {
		t.Fatalf("message count = %d, want 2", msg.EW[0])
	}
	// Volume graph weight may differ from message count when volumes
	// exceed one unit; here both are 2 (1 unit each way).
	vol := graph.Contract(tg.G.Symmetrize(nil), group, 2, nil)
	if vol.EW[0] != 2 {
		t.Fatalf("volume = %d, want 2", vol.EW[0])
	}
}

func TestCoarseMessageGraphCountsMultiplicity(t *testing.T) {
	// Two tasks in group 0 each send to two tasks in group 1: four
	// directed fine messages -> message weight 4, regardless of volume.
	m := matrix.FromCOO(4, 4,
		[]int32{2, 2, 3, 3, 0, 1, 2, 3},
		[]int32{0, 1, 0, 1, 0, 1, 2, 3})
	part := []int32{0, 1, 2, 3}
	tg, err := Build(m, part, 4)
	if err != nil {
		t.Fatal(err)
	}
	group := []int32{0, 0, 1, 1}
	msg := CoarseMessageGraph(nil, tg, group, 2)
	if msg.M() != 2 || msg.EW[0] != 4 {
		t.Fatalf("message graph M=%d w=%v, want weight 4", msg.M(), msg.EW)
	}
}
