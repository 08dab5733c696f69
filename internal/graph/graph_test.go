package graph

import (
	"testing"
	"testing/quick"
)

func TestFromEdgesBasic(t *testing.T) {
	// Triangle 0-1-2 with weights.
	us := []int32{0, 1, 1, 2, 0, 2}
	vs := []int32{1, 0, 2, 1, 2, 0}
	ws := []int64{5, 5, 7, 7, 9, 9}
	g := FromEdges(3, us, vs, ws, nil)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 6 {
		t.Fatalf("N=%d M=%d, want 3,6", g.N(), g.M())
	}
	if !g.IsSymmetric() {
		t.Fatal("triangle should be symmetric")
	}
	if !g.HasEdge(0, 1) || g.HasEdge(0, 0) {
		t.Fatal("edge queries wrong")
	}
	if got := g.TotalEdgeWeight(); got != 42 {
		t.Fatalf("TotalEdgeWeight = %d, want 42", got)
	}
}

func TestFromEdgesMergesParallelAndDropsLoops(t *testing.T) {
	us := []int32{0, 0, 0, 1}
	vs := []int32{1, 1, 0, 1} // two parallel (0,1), a loop (0,0), a loop (1,1)
	ws := []int64{3, 4, 100, 100}
	g := FromEdges(2, us, vs, ws, nil)
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1 (merged, loops dropped)", g.M())
	}
	if g.EW[0] != 7 {
		t.Fatalf("merged weight = %d, want 7", g.EW[0])
	}
}

func TestSymmetrize(t *testing.T) {
	// Directed: 0->1 (w 3), 1->0 (w 4), 2->0 (w 5).
	us := []int32{0, 1, 2}
	vs := []int32{1, 0, 0}
	ws := []int64{3, 4, 5}
	g := FromEdges(3, us, vs, ws, nil)
	s := g.Symmetrize(nil)
	if !s.IsSymmetric() {
		t.Fatal("Symmetrize output not symmetric")
	}
	// (0,1) should have weight 3+4=7 in both directions.
	for _, e := range []struct {
		u, v int
		w    int64
	}{{0, 1, 7}, {1, 0, 7}, {0, 2, 5}, {2, 0, 5}} {
		found := false
		for i := s.Xadj[e.u]; i < s.Xadj[e.u+1]; i++ {
			if int(s.Adj[i]) == e.v {
				found = true
				if s.EW[i] != e.w {
					t.Fatalf("weight(%d,%d) = %d, want %d", e.u, e.v, s.EW[i], e.w)
				}
			}
		}
		if !found {
			t.Fatalf("edge (%d,%d) missing after Symmetrize", e.u, e.v)
		}
	}
}

func TestSymmetrizeProperty(t *testing.T) {
	prop := func(seed int64) bool {
		g := RandomConnected(30, 60, 9, seed)
		s := g.Symmetrize(nil)
		return s.Validate() == nil && s.IsSymmetric() &&
			s.TotalEdgeWeight() == 2*g.TotalEdgeWeight()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGrid2D(t *testing.T) {
	g := Grid2D(3, 4)
	if g.N() != 12 {
		t.Fatalf("N = %d, want 12", g.N())
	}
	// 2*rows*cols - rows - cols undirected edges, stored twice.
	wantM := 2 * (2*3*4 - 3 - 4)
	if g.M() != wantM {
		t.Fatalf("M = %d, want %d", g.M(), wantM)
	}
	// Corner 0 has degree 2; interior (1,1)=5 has degree 4.
	if g.Degree(0) != 2 || g.Degree(5) != 4 {
		t.Fatalf("degrees: corner=%d interior=%d, want 2,4", g.Degree(0), g.Degree(5))
	}
	if !g.IsSymmetric() {
		t.Fatal("grid not symmetric")
	}
}

// bfsLevels collects the level BFS reports for every vertex, -1 when
// unreached.
func bfsLevels(g *Graph, seeds []int32) []int32 {
	lv := make([]int32, g.N())
	for i := range lv {
		lv[i] = -1
	}
	BFS(g, seeds, func(v int32, level int) bool {
		lv[v] = int32(level)
		return true
	})
	return lv
}

func TestBFSLevelsOnRing(t *testing.T) {
	g := Ring(8)
	lv := bfsLevels(g, []int32{0})
	want := []int32{0, 1, 2, 3, 4, 3, 2, 1}
	for i := range want {
		if lv[i] != want[i] {
			t.Fatalf("level[%d] = %d, want %d", i, lv[i], want[i])
		}
	}
}

func TestBFSMultiSeed(t *testing.T) {
	g := Ring(8)
	lv := bfsLevels(g, []int32{0, 4})
	want := []int32{0, 1, 2, 1, 0, 1, 2, 1}
	for i := range want {
		if lv[i] != want[i] {
			t.Fatalf("level[%d] = %d, want %d", i, lv[i], want[i])
		}
	}
}

func TestBFSEarlyExit(t *testing.T) {
	g := Grid2D(10, 10)
	visited := 0
	BFS(g, []int32{0}, func(v int32, level int) bool {
		visited++
		return level < 2 // stop once we see a level-2 vertex
	})
	if visited > 7 { // 1 + 2 + 3 +1(the aborting one) is the max
		t.Fatalf("early exit visited %d vertices", visited)
	}
	if visited == 0 {
		t.Fatal("BFS visited nothing")
	}
}

func TestFarthestVertex(t *testing.T) {
	g := Ring(10)
	v, level, ok := FarthestVertex(g, []int32{0}, nil, nil)
	if !ok || v != 5 || level != 5 {
		t.Fatalf("FarthestVertex = (%d,%d,%v), want (5,5,true)", v, level, ok)
	}
	// Tie-break: from seed 0 on a 4-cycle both 1 and 3 are at level 1,
	// 2 at level 2; restrict to {1,3} and give 3 the higher weight.
	g4 := Ring(4)
	weights := []int64{0, 1, 0, 9}
	v, _, ok = FarthestVertex(g4, []int32{0}, func(v int32) bool { return v == 1 || v == 3 }, weights)
	if !ok || v != 3 {
		t.Fatalf("tie-break FarthestVertex = %d, want 3", v)
	}
}

func TestFarthestVertexNoEligible(t *testing.T) {
	g := Ring(4)
	_, _, ok := FarthestVertex(g, []int32{0}, func(v int32) bool { return false }, nil)
	if ok {
		t.Fatal("expected found=false with no eligible vertices")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := RandomConnected(10, 10, 5, 1)
	g.VW = make([]int64, g.N())
	c := g.Clone()
	c.EW[0] = 999
	c.VW[0] = 999
	c.Adj[0] = 0
	if g.EW[0] == 999 || g.VW[0] == 999 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := Grid2D(2, 2)
	bad := g.Clone()
	bad.Adj[0] = 99
	if bad.Validate() == nil {
		t.Fatal("Validate missed out-of-range Adj")
	}
	bad2 := g.Clone()
	bad2.Xadj[1] = 100
	if bad2.Validate() == nil {
		t.Fatal("Validate missed bad Xadj")
	}
}

func TestRandomConnectedIsConnected(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := RandomConnected(50, 20, 3, seed)
		for v, lv := range bfsLevels(g, []int32{0}) {
			if lv < 0 {
				t.Fatalf("seed %d: vertex %d unreachable from 0", seed, v)
			}
		}
		if !g.IsSymmetric() {
			t.Fatalf("seed %d: not symmetric", seed)
		}
	}
}

func TestStar(t *testing.T) {
	g := Star([]int64{2, 4, 6})
	if g.N() != 4 || g.Degree(0) != 3 {
		t.Fatalf("star shape wrong: N=%d deg(0)=%d", g.N(), g.Degree(0))
	}
	var hubSum int64
	for _, w := range g.Weights(0) {
		hubSum += w
	}
	if hubSum != 12 {
		t.Fatalf("hub weight sum = %d, want 12", hubSum)
	}
}

func TestVertexWeightDefaults(t *testing.T) {
	g := Ring(4)
	if g.VertexWeight(0) != 1 {
		t.Fatal("nil VW should default to 1")
	}
	if g.TotalVertexWeight() != 4 {
		t.Fatalf("TotalVertexWeight = %d, want 4", g.TotalVertexWeight())
	}
	g.VW = []int64{2, 3, 4, 5}
	if g.VertexWeight(2) != 4 || g.TotalVertexWeight() != 14 {
		t.Fatal("explicit VW not honoured")
	}
}

func TestEdgeWeightDefaults(t *testing.T) {
	g := &Graph{Xadj: []int32{0, 1, 2}, Adj: []int32{1, 0}}
	if g.EdgeWeight(0) != 1 {
		t.Fatal("nil EW should default to 1")
	}
	if g.TotalEdgeWeight() != 2 {
		t.Fatalf("TotalEdgeWeight = %d, want 2", g.TotalEdgeWeight())
	}
}

func TestValidateMoreCorruption(t *testing.T) {
	cases := []*Graph{
		{Xadj: nil}, // empty
		{Xadj: []int32{1, 2}, Adj: []int32{0, 0}},                 // Xadj[0] != 0
		{Xadj: []int32{0, 2}, Adj: []int32{0}},                    // Xadj[n] mismatch
		{Xadj: []int32{0, 1}, Adj: []int32{0}, EW: []int64{}},     // EW length
		{Xadj: []int32{0, 1}, Adj: []int32{0}, VW: []int64{1, 2}}, // VW length
	}
	for i, g := range cases {
		if g.Validate() == nil {
			t.Fatalf("case %d: Validate accepted corrupt graph", i)
		}
	}
}

func TestIsSymmetricDetectsAsymmetry(t *testing.T) {
	g := FromEdges(3, []int32{0}, []int32{1}, []int64{5}, nil)
	if g.IsSymmetric() {
		t.Fatal("directed edge should not be symmetric")
	}
	// Same structure but different weights per direction.
	g2 := FromEdges(2, []int32{0, 1}, []int32{1, 0}, []int64{5, 7}, nil)
	if g2.IsSymmetric() {
		t.Fatal("weight-asymmetric graph should not be symmetric")
	}
}

func TestSymmetrizePreservesVertexWeights(t *testing.T) {
	g := FromEdges(3, []int32{0}, []int32{1}, []int64{5}, []int64{10, 20, 30})
	s := g.Symmetrize(nil)
	for i, want := range []int64{10, 20, 30} {
		if s.VertexWeight(i) != want {
			t.Fatalf("VW[%d] = %d, want %d", i, s.VertexWeight(i), want)
		}
	}
}
