package topomap

import (
	"bytes"
	"context"
	"testing"
)

// Public-API tests: the full pipeline through the facade, exactly as
// a downstream user would drive it.

// solveOn maps tg with one mapper at seed 1 through a fresh engine —
// the one-shot path of a user mapping a single job.
func solveOn(t *testing.T, mp Mapper, tg *TaskGraph, topo Topology, a *Allocation) *MapResult {
	t.Helper()
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunSolve(context.Background(), tg, Solve{Mapper: mp, Seed: 1})
	if err != nil {
		t.Fatalf("%s: %v", mp, err)
	}
	return res
}

func TestFullPipeline(t *testing.T) {
	m, err := GenerateMatrix("cagelike", Tiny)
	if err != nil {
		t.Fatal(err)
	}
	const procs = 128
	part, err := PartitionMatrix(PATOH, m, procs, 1)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := BuildTaskGraph(m, part, procs)
	if err != nil {
		t.Fatal(err)
	}
	topo := NewHopperTorus(6, 6, 6)
	a, err := SparseAllocation(topo, procs/16, 1)
	if err != nil {
		t.Fatal(err)
	}
	results := map[Mapper]*MapResult{}
	for _, mp := range Mappers() {
		res := solveOn(t, mp, tg, topo, a)
		if len(res.GroupOf) != procs || len(res.NodeOf) != a.NumNodes() {
			t.Fatalf("%s: result shapes wrong", mp)
		}
		if res.Metrics.WH <= 0 || res.Metrics.TH <= 0 {
			t.Fatalf("%s: degenerate metrics %+v", mp, res.Metrics)
		}
		results[mp] = res
	}
	// Simulation must run for every mapping.
	for mp, res := range results {
		secs := SimulateSpMV(tg, topo, res.Placement(), 10, SimParams{Seed: 1})
		if secs <= 0 {
			t.Fatalf("%s: simulated time %g", mp, secs)
		}
		c := SimulateCommOnly(tg, topo, res.Placement(), 4096, SimParams{Seed: 1})
		if c <= 0 {
			t.Fatalf("%s: simulated comm time %g", mp, c)
		}
	}
}

func TestDirectAlgorithmAPI(t *testing.T) {
	coarse := FromEdges(8,
		[]int32{0, 1, 2, 3, 4, 5, 6, 7},
		[]int32{1, 2, 3, 4, 5, 6, 7, 0},
		[]int64{5, 5, 5, 5, 5, 5, 5, 5})
	topo := NewHopperTorus(4, 4, 4)
	a, err := ContiguousAllocation(topo, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	nodeOf := GreedyMap(coarse, topo, a.Nodes)
	if len(nodeOf) != 8 {
		t.Fatal("GreedyMap shape wrong")
	}
	gain := RefineWH(coarse, topo, a.Nodes, nodeOf)
	if gain < 0 {
		t.Fatalf("negative WH gain %d", gain)
	}
	if swaps := RefineMC(coarse, topo, a.Nodes, nodeOf); swaps < 0 {
		t.Fatal("negative swap count")
	}
	if swaps := RefineMMC(coarse, topo, a.Nodes, nodeOf); swaps < 0 {
		t.Fatal("negative swap count")
	}
}

func TestDatasetAccessors(t *testing.T) {
	names := DatasetNames()
	if len(names) != 25 {
		t.Fatalf("dataset has %d names", len(names))
	}
	if _, err := GenerateMatrix("does-not-exist", Tiny); err == nil {
		t.Fatal("want error for unknown matrix")
	}
	if len(Partitioners()) != 7 {
		t.Fatal("expected 7 partitioner personalities")
	}
	if len(Mappers()) != 7 {
		t.Fatal("expected 7 mappers")
	}
}

func TestUWHImprovesOverDEFOnScatteredAlloc(t *testing.T) {
	// The headline claim at test scale: on a poor (scattered-ish)
	// sparse allocation, UWH beats DEF on WH.
	m, err := GenerateMatrix("mesh3d-a", Tiny)
	if err != nil {
		t.Fatal(err)
	}
	const procs = 256
	part, err := PartitionMatrix(PATOH, m, procs, 2)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := BuildTaskGraph(m, part, procs)
	if err != nil {
		t.Fatal(err)
	}
	topo := NewHopperTorus(8, 8, 8)
	a, err := SparseAllocation(topo, procs/16, 5)
	if err != nil {
		t.Fatal(err)
	}
	def := solveOn(t, DEF, tg, topo, a)
	uwh := solveOn(t, UWH, tg, topo, a)
	if uwh.Metrics.WH >= def.Metrics.WH {
		t.Fatalf("UWH WH %d not better than DEF %d", uwh.Metrics.WH, def.Metrics.WH)
	}
}

func TestExtraMappers(t *testing.T) {
	m, err := GenerateMatrix("social-b", Tiny)
	if err != nil {
		t.Fatal(err)
	}
	const procs = 64
	part, err := PartitionMatrix(PATOH, m, procs, 1)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := BuildTaskGraph(m, part, procs)
	if err != nil {
		t.Fatal(err)
	}
	topo := NewHopperTorus(6, 6, 6)
	a, err := SparseAllocation(topo, procs/16, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, mp := range []Mapper{UTH, TMAPG, UML, UMCA} {
		res := solveOn(t, mp, tg, topo, a)
		if res.Metrics.WH <= 0 {
			t.Fatalf("%s: degenerate WH", mp)
		}
	}
}

func TestHeterogeneousCapacities(t *testing.T) {
	// Non-uniform processors per node (§III-A and §IV-B: 24 cores per
	// node do not divide power-of-two process counts, so real
	// allocations are non-uniform). The pipeline must respect every
	// node's capacity.
	m, err := GenerateMatrix("cagelike", Tiny)
	if err != nil {
		t.Fatal(err)
	}
	topo := NewHopperTorus(6, 6, 6)
	a := &Allocation{
		Nodes:        []int32{3, 40, 77, 101, 130, 171},
		ProcsPerNode: []int{24, 8, 16, 24, 8, 16}, // 96 procs
	}
	procs := a.TotalProcs()
	part, err := PartitionMatrix(PATOH, m, procs, 1)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := BuildTaskGraph(m, part, procs)
	if err != nil {
		t.Fatal(err)
	}
	for _, mp := range []Mapper{DEF, UG, UWH, UMC} {
		res := solveOn(t, mp, tg, topo, a)
		// Count tasks per node and check capacities.
		capOf := map[int32]int{}
		for i, n := range a.Nodes {
			capOf[n] = a.ProcsPerNode[i]
		}
		perNode := map[int32]int{}
		for _, g := range res.GroupOf {
			perNode[res.NodeOf[g]]++
		}
		for n, cnt := range perNode {
			c, ok := capOf[n]
			if !ok {
				t.Fatalf("%s: tasks on unallocated node %d", mp, n)
			}
			if cnt > c {
				t.Fatalf("%s: node %d hosts %d tasks, capacity %d", mp, n, cnt, c)
			}
		}
		if res.Metrics.WH <= 0 {
			t.Fatalf("%s: degenerate WH", mp)
		}
	}
}

func TestRankOrderThroughPublicAPI(t *testing.T) {
	m, err := GenerateMatrix("mesh2d-a", Tiny)
	if err != nil {
		t.Fatal(err)
	}
	topo := NewHopperTorus(6, 6, 6)
	a, err := SparseAllocation(topo, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	procs := a.TotalProcs()
	part, err := PartitionMatrix(METIS, m, procs, 1)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := BuildTaskGraph(m, part, procs)
	if err != nil {
		t.Fatal(err)
	}
	res := solveOn(t, UWH, tg, topo, a)
	var buf bytes.Buffer
	if err := WriteRankOrder(&buf, res.Placement(), a); err != nil {
		t.Fatal(err)
	}
	order, err := ReadRankOrder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	realized, err := PlacementFromRankOrder(order, a)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := EvaluateMetrics(tg, topo, realized), res.Metrics; got != want {
		t.Fatalf("rank file altered the metrics:\n want %+v\n got  %+v", want, got)
	}
}

func TestMeshTopologyPipeline(t *testing.T) {
	// The whole pipeline must work on a mesh network too.
	m, err := GenerateMatrix("mesh2d-a", Tiny)
	if err != nil {
		t.Fatal(err)
	}
	const procs = 64
	part, err := PartitionMatrix(METIS, m, procs, 1)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := BuildTaskGraph(m, part, procs)
	if err != nil {
		t.Fatal(err)
	}
	topo := NewTorusMesh([]int{6, 6, 6}, []float64{9e9, 4.5e9, 9e9})
	a, err := SparseAllocation(topo, procs/16, 2)
	if err != nil {
		t.Fatal(err)
	}
	def := solveOn(t, DEF, tg, topo, a)
	uwh := solveOn(t, UWH, tg, topo, a)
	if uwh.Metrics.WH > def.Metrics.WH {
		t.Fatalf("mesh: UWH WH %d worse than DEF %d", uwh.Metrics.WH, def.Metrics.WH)
	}
}
