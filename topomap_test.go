package topomap

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/netsim"
	"repro/internal/partitioners"
	"repro/internal/taskgraph"
)

// Public-API tests: the full pipeline through the root API, exactly
// as a downstream user would drive it, on SpMV workloads built by the
// reproduction harness (spmvTaskGraph).

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

// spmvTaskGraph builds the task graph of a procs-way 1D row-wise SpMV
// on the named Tiny dataset matrix, partitioned by personality p —
// the workload fixture of the pipeline tests, built straight from the
// harness packages the root API does not export.
func spmvTaskGraph(t *testing.T, matrix string, p partitioners.Name, procs int, seed int64) *TaskGraph {
	t.Helper()
	spec, err := gen.ByName(matrix)
	if err != nil {
		t.Fatal(err)
	}
	m := spec.Generate(gen.Tiny)
	part, err := partitioners.Run(p, m, procs, seed)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := taskgraph.Build(m, part, procs)
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

func TestFullPipeline(t *testing.T) {
	const procs = 128
	tg := spmvTaskGraph(t, "cagelike", partitioners.PATOHP, procs, 1)
	topo := NewHopperTorus(6, 6, 6)
	a, err := SparseAllocation(topo, procs/16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(Mappers()) != 7 {
		t.Fatalf("Figure 2 lists %d mappers, want 7", len(Mappers()))
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
		secs := netsim.SpMV(tg.G, topo, res.Placement(), 10, SimParams{Seed: 1}).Seconds
		if secs <= 0 {
			t.Fatalf("%s: simulated time %g", mp, secs)
		}
		c := netsim.CommOnly(tg.G, topo, res.Placement(), 4096, SimParams{Seed: 1}).Seconds
		if c <= 0 {
			t.Fatalf("%s: simulated comm time %g", mp, c)
		}
	}
}

func TestUWHImprovesOverDEFOnScatteredAlloc(t *testing.T) {
	// The headline claim at test scale: on a poor (scattered-ish)
	// sparse allocation, UWH beats DEF on WH.
	const procs = 256
	tg := spmvTaskGraph(t, "mesh3d-a", partitioners.PATOHP, procs, 2)
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
	const procs = 64
	tg := spmvTaskGraph(t, "social-b", partitioners.PATOHP, procs, 1)
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
	topo := NewHopperTorus(6, 6, 6)
	a := &Allocation{
		Nodes:        []int32{3, 40, 77, 101, 130, 171},
		ProcsPerNode: []int{24, 8, 16, 24, 8, 16}, // 96 procs
	}
	procs := a.TotalProcs()
	tg := spmvTaskGraph(t, "cagelike", partitioners.PATOHP, procs, 1)
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
	topo := NewHopperTorus(6, 6, 6)
	a, err := SparseAllocation(topo, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	procs := a.TotalProcs()
	tg := spmvTaskGraph(t, "mesh2d-a", partitioners.METISP, procs, 1)
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
	const procs = 64
	tg := spmvTaskGraph(t, "mesh2d-a", partitioners.METISP, procs, 1)
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
