package partition

import (
	"context"
	"slices"
	"testing"

	"repro/internal/arena"
	"repro/internal/graph"
	"repro/internal/parallel"
)

func checkPartition(t *testing.T, g *graph.Graph, part []int32, k int, targets []int64, eps float64) {
	t.Helper()
	if len(part) != g.N() {
		t.Fatalf("part vector length %d, want %d", len(part), g.N())
	}
	for v, p := range part {
		if p < 0 || int(p) >= k {
			t.Fatalf("vertex %d in part %d (k=%d)", v, p, k)
		}
	}
	w := PartWeights(g, part, k)
	if imb := Imbalance(w, targets); imb > eps+1e-9 {
		t.Fatalf("imbalance %f > %f (weights %v targets %v)", imb, eps, w, targets)
	}
}

func TestPartitionGrid(t *testing.T) {
	g := graph.Grid2D(16, 16)
	for _, k := range []int{2, 4, 8} {
		part, err := Partition(g, k, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		targets := make([]int64, k)
		for i := range targets {
			targets[i] = int64(g.N() / k)
		}
		checkPartition(t, g, part, k, targets, 0.05)
		// A 16x16 grid split into k parts has an ideal cut around
		// 16*(k-1)/something; just require far below the total edges.
		cut := EdgeCut(g, part)
		if cut <= 0 {
			t.Fatalf("k=%d: cut = %d, expected positive", k, cut)
		}
		maxCut := g.TotalEdgeWeight() / 2 / 3 // no more than a third of edges cut
		if cut > maxCut {
			t.Fatalf("k=%d: cut %d too high (limit %d)", k, cut, maxCut)
		}
	}
}

func TestBisectionQualityOnGrid(t *testing.T) {
	// Optimal bisection of a 16x16 grid cuts 16 edges; the multilevel
	// partitioner should get within 2x.
	g := graph.Grid2D(16, 16)
	part, err := Partition(g, 2, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cut := EdgeCut(g, part)
	if cut > 32 {
		t.Fatalf("grid bisection cut = %d, want <= 32", cut)
	}
}

func TestPartitionTargetsUneven(t *testing.T) {
	g := graph.Grid2D(12, 12) // 144 vertices
	targets := []int64{100, 28, 16}
	part, err := PartitionTargets(g, targets, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, g, part, 3, targets, 0.08)
}

func TestPartitionWeightedVertices(t *testing.T) {
	g := graph.Grid2D(10, 10)
	g.VW = make([]int64, g.N())
	for i := range g.VW {
		g.VW[i] = int64(1 + i%5)
	}
	part, err := Partition(g, 4, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	total := g.TotalVertexWeight()
	targets := []int64{total / 4, total / 4, total / 4, total / 4}
	checkPartition(t, g, part, 4, targets, 0.10)
}

// TestPartitionNilEdgeWeights: a graph storing unit edges as a nil EW
// partitions exactly as the same graph with EW spelled out, including
// one small enough that its first bisection grows on the input graph
// itself, uncoarsened.
func TestPartitionNilEdgeWeights(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Grid2D(6, 6), graph.Grid2D(20, 15)} {
		nilEW := &graph.Graph{Xadj: g.Xadj, Adj: g.Adj}
		for _, k := range []int{2, 5} {
			want, err := Partition(g, k, Options{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Partition(nilEW, k, Options{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d k=%d: nil EW partitioned %v, unit EW %v", g.N(), k, got, want)
			}
		}
	}
}

func TestPartitionDisconnected(t *testing.T) {
	// Two disjoint grids; partitioner must still balance.
	g1 := graph.Grid2D(8, 8)
	n1 := g1.N()
	var us, vs []int32
	var ws []int64
	for u := 0; u < n1; u++ {
		for i := g1.Xadj[u]; i < g1.Xadj[u+1]; i++ {
			us = append(us, int32(u), int32(u)+int32(n1))
			vs = append(vs, g1.Adj[i], g1.Adj[i]+int32(n1))
			ws = append(ws, 1, 1)
		}
	}
	g := graph.FromEdges(2*n1, us, vs, ws, nil)
	part, err := Partition(g, 4, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	targets := []int64{32, 32, 32, 32}
	checkPartition(t, g, part, 4, targets, 0.10)
}

func TestPartitionDeterministic(t *testing.T) {
	g := graph.RandomConnected(300, 600, 5, 11)
	p1, err := Partition(g, 8, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Partition(g, 8, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("same seed gave different partitions")
		}
	}
}

func TestPartitionSinglePart(t *testing.T) {
	g := graph.Ring(10)
	part, err := Partition(g, 1, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range part {
		if p != 0 {
			t.Fatal("k=1 must put everything in part 0")
		}
	}
	if EdgeCut(g, part) != 0 {
		t.Fatal("k=1 cut must be 0")
	}
}

func TestPartitionErrors(t *testing.T) {
	g := graph.Ring(4)
	if _, err := PartitionTargets(g, nil, Options{}); err == nil {
		t.Fatal("want error for no targets")
	}
	if _, err := PartitionTargets(g, []int64{-1, 5}, Options{}); err == nil {
		t.Fatal("want error for negative target")
	}
	if _, err := PartitionTargets(g, []int64{0, 0}, Options{}); err == nil {
		t.Fatal("want error for zero total")
	}
}

func TestRecursiveBisectionLocality(t *testing.T) {
	// On a path graph, recursive bisection should produce part ids
	// that are contiguous along the path (the locality property DEF
	// exploits). Verify the number of part transitions equals k-1.
	n, k := 256, 8
	var us, vs []int32
	for i := 0; i < n-1; i++ {
		us = append(us, int32(i), int32(i+1))
		vs = append(vs, int32(i+1), int32(i))
	}
	g := graph.FromEdges(n, us, vs, nil, nil)
	part, err := Partition(g, k, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	transitions := 0
	for i := 1; i < n; i++ {
		if part[i] != part[i-1] {
			transitions++
		}
	}
	if transitions > k+2 {
		t.Fatalf("path partition has %d transitions, want close to %d", transitions, k-1)
	}
}

func TestHeavyEdgesStayTogether(t *testing.T) {
	// A graph of 8 pairs connected by huge weights, pairs connected in
	// a ring by weight-1 edges. Bisection must never cut a heavy edge.
	var us, vs []int32
	var ws []int64
	const pairs = 8
	for p := 0; p < pairs; p++ {
		a, b := int32(2*p), int32(2*p+1)
		us = append(us, a, b)
		vs = append(vs, b, a)
		ws = append(ws, 1000, 1000)
		c := int32((2*p + 2) % (2 * pairs))
		us = append(us, b, c)
		vs = append(vs, c, b)
		ws = append(ws, 1, 1)
	}
	g := graph.FromEdges(2*pairs, us, vs, ws, nil)
	part, err := Partition(g, 2, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < pairs; p++ {
		if part[2*p] != part[2*p+1] {
			t.Fatalf("heavy pair %d cut", p)
		}
	}
}

func TestFixToCapacities(t *testing.T) {
	g := graph.Grid2D(8, 8) // 64 vertices
	// Deliberately unbalanced: everything in part 0.
	part := make([]int32, g.N())
	caps := []int64{16, 16, 16, 16}
	if err := FixToCapacities(g, part, caps); err != nil {
		t.Fatal(err)
	}
	w := PartWeights(g, part, 4)
	for p, ww := range w {
		if ww > caps[p] {
			t.Fatalf("part %d weight %d exceeds capacity %d", p, ww, caps[p])
		}
	}
}

func TestFixToCapacitiesInfeasible(t *testing.T) {
	g := graph.Ring(10)
	part := make([]int32, 10)
	if err := FixToCapacities(g, part, []int64{4, 4}); err == nil {
		t.Fatal("want error when total capacity < total weight")
	}
}

func TestFixToCapacitiesPrefersCheapMoves(t *testing.T) {
	// Path 0-1-2-3; parts {0,1,2} and {3}; capacities 2,2. Moving 2
	// (connected to 3) is cheaper than moving 0 or 1.
	var us, vs []int32
	for i := 0; i < 3; i++ {
		us = append(us, int32(i), int32(i+1))
		vs = append(vs, int32(i+1), int32(i))
	}
	g := graph.FromEdges(4, us, vs, nil, nil)
	part := []int32{0, 0, 0, 1}
	if err := FixToCapacities(g, part, []int64{2, 2}); err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 0, 1, 1}
	for i := range want {
		if part[i] != want[i] {
			t.Fatalf("part = %v, want %v", part, want)
		}
	}
}

func TestRefineKWayPass(t *testing.T) {
	// 4x4 grid, 2 parts split badly (checkerboard); one pass should
	// reduce the cut substantially.
	g := graph.Grid2D(4, 4)
	part := make([]int32, 16)
	for i := range part {
		part[i] = int32((i + i/4) % 2) // checkerboard
	}
	before := EdgeCut(g, part)
	caps := []int64{12, 12}
	gain := RefineKWayPass(g, part, caps)
	after := EdgeCut(g, part)
	if after != before-gain {
		t.Fatalf("gain accounting wrong: before %d, after %d, gain %d", before, after, gain)
	}
	if after >= before {
		t.Fatalf("refinement did not improve checkerboard cut (%d -> %d)", before, after)
	}
	w := PartWeights(g, part, 2)
	if w[0] > caps[0] || w[1] > caps[1] {
		t.Fatalf("refinement broke capacities: %v", w)
	}
}

func TestMatchingPolicies(t *testing.T) {
	g := graph.RandomConnected(500, 1500, 10, 13)
	for _, m := range []Matching{HeavyEdge, RandomEdge} {
		part, err := Partition(g, 4, Options{Seed: 17, Matching: m})
		if err != nil {
			t.Fatal(err)
		}
		targets := []int64{125, 125, 125, 125}
		checkPartition(t, g, part, 4, targets, 0.10)
	}
}

func TestImbalanceHelper(t *testing.T) {
	if got := Imbalance([]int64{110, 90}, []int64{100, 100}); got < 0.099 || got > 0.101 {
		t.Fatalf("Imbalance = %f, want 0.10", got)
	}
	if got := Imbalance([]int64{0, 0}, []int64{0, 10}); got != 0 {
		t.Fatalf("Imbalance with empty ok = %f", got)
	}
	if got := Imbalance([]int64{5}, []int64{0}); got < 1e17 {
		t.Fatalf("Imbalance zero target = %f, want huge", got)
	}
}

// TestPartitionWorkerDeterminism is the subtree-RNG contract: the
// part vector must be byte-identical for every worker count — the
// split tree depends only on (graph, targets, seed), never on how
// subtrees were scheduled. Run under -race this is also the proof
// that parallel subtrees touch disjoint state.
func TestPartitionWorkerDeterminism(t *testing.T) {
	g := graph.RandomConnected(2000, 6000, 50, 7)
	targets := make([]int64, 32)
	for i := range targets {
		targets[i] = int64(g.N() / len(targets))
	}
	targets[0] += int64(g.N() % len(targets))
	for _, m := range []Matching{HeavyEdge, RandomEdge} {
		base, err := PartitionTargets(g, targets, Options{Seed: 42, Matching: m})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			opt := Options{
				Seed:     42,
				Matching: m,
				Par:      parallel.NewGroup(context.Background(), workers),
				Arena:    arena.New(),
			}
			got, err := PartitionTargets(g, targets, opt)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			for v := range base {
				if got[v] != base[v] {
					t.Fatalf("matching=%d workers=%d: part[%d] = %d, want %d",
						m, workers, v, got[v], base[v])
				}
			}
		}
	}
}

// TestPartitionCancellation: a dead context must surface as an error
// from PartitionTargets, not as a silently wrong part vector.
func TestPartitionCancellation(t *testing.T) {
	g := graph.RandomConnected(500, 1500, 10, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := PartitionTargets(g, []int64{250, 250}, Options{
		Seed: 1,
		Par:  parallel.NewGroup(ctx, 2),
	})
	if err == nil {
		t.Fatal("cancelled partition returned no error")
	}
}
