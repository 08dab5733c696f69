package rankfile

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/alloc"
	"repro/internal/metrics"
	"repro/internal/torus"
)

func testAlloc(nodes ...int32) *alloc.Allocation {
	procs := make([]int, len(nodes))
	for i := range procs {
		procs[i] = 4
	}
	return &alloc.Allocation{Nodes: nodes, ProcsPerNode: procs}
}

func TestWriteReadRankOrderRoundTrip(t *testing.T) {
	a := testAlloc(10, 3, 77)
	// 12 ranks, 4 per node, scrambled across the three nodes.
	groupOf := []int32{2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1}
	pl := &metrics.Placement{GroupOf: groupOf, NodeOf: a.Nodes}
	var buf bytes.Buffer
	if err := WriteRankOrder(&buf, pl, a); err != nil {
		t.Fatal(err)
	}
	order, err := ReadRankOrder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 12 {
		t.Fatalf("order has %d ranks", len(order))
	}
	back, err := PlacementFromRankOrder(order, a)
	if err != nil {
		t.Fatal(err)
	}
	for r := int32(0); r < 12; r++ {
		if back.Node(r) != pl.Node(r) {
			t.Fatalf("rank %d: node %d after round trip, want %d", r, back.Node(r), pl.Node(r))
		}
	}
}

func TestWriteRankOrderSMPBlocks(t *testing.T) {
	// Identity placement: the file must be 0..n-1 in order.
	a := testAlloc(5, 6)
	groupOf := []int32{0, 0, 0, 0, 1, 1, 1, 1}
	pl := &metrics.Placement{GroupOf: groupOf, NodeOf: a.Nodes}
	var buf bytes.Buffer
	if err := WriteRankOrder(&buf, pl, a); err != nil {
		t.Fatal(err)
	}
	order, err := ReadRankOrder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range order {
		if int(r) != i {
			t.Fatalf("identity placement produced order %v", order)
		}
	}
}

func TestWriteRankOrderRejectsForeignNode(t *testing.T) {
	a := testAlloc(1, 2)
	pl := &metrics.Placement{NodeOf: []int32{1, 99}}
	if err := WriteRankOrder(&bytes.Buffer{}, pl, a); err == nil {
		t.Fatal("node outside allocation accepted")
	}
}

func TestWriteRankOrderRejectsOverCapacity(t *testing.T) {
	a := &alloc.Allocation{Nodes: []int32{4}, ProcsPerNode: []int{2}}
	pl := &metrics.Placement{GroupOf: []int32{0, 0, 0}, NodeOf: []int32{4}}
	if err := WriteRankOrder(&bytes.Buffer{}, pl, a); err == nil {
		t.Fatal("over-capacity node accepted")
	}
}

func TestWriteRankOrderRejectsUnrealizablePlacement(t *testing.T) {
	// Node 0 partially filled (3 of 4) while node 1 is non-empty: SMP
	// block filling would steal a node-1 rank onto node 0.
	a := testAlloc(5, 6)
	groupOf := []int32{0, 0, 0, 1, 1, 1, 1}
	pl := &metrics.Placement{GroupOf: groupOf, NodeOf: a.Nodes}
	if err := WriteRankOrder(&bytes.Buffer{}, pl, a); err == nil {
		t.Fatal("unrealizable placement accepted")
	}
}

func TestWriteRankOrderAcceptsTrailingPartialNode(t *testing.T) {
	// 6 ranks on capacities 4+4: full node then partial final node.
	a := testAlloc(5, 6)
	groupOf := []int32{0, 0, 0, 0, 1, 1}
	pl := &metrics.Placement{GroupOf: groupOf, NodeOf: a.Nodes}
	var buf bytes.Buffer
	if err := WriteRankOrder(&buf, pl, a); err != nil {
		t.Fatal(err)
	}
	order, err := ReadRankOrder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := PlacementFromRankOrder(order, a)
	if err != nil {
		t.Fatal(err)
	}
	for r := int32(0); r < 6; r++ {
		if back.Node(r) != pl.Node(r) {
			t.Fatalf("rank %d: node %d, want %d", r, back.Node(r), pl.Node(r))
		}
	}
}

func TestReadRankOrderFormats(t *testing.T) {
	for _, in := range []string{
		"0,1,2,3",
		"0, 1, 2, 3",
		"# comment\n0,1,\n2,3\n",
		"3 2 1 0",
	} {
		order, err := ReadRankOrder(strings.NewReader(in))
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if len(order) != 4 {
			t.Fatalf("%q: %d ranks", in, len(order))
		}
	}
}

func TestReadRankOrderRejectsNonPermutation(t *testing.T) {
	// Ranks past int32 must not wrap into range: 4294967297 is 1 mod 2^32.
	for _, in := range []string{"", "0,1,1", "0,2", "-1,0", "a,b", "0,4294967297", "4294967296,1"} {
		if _, err := ReadRankOrder(strings.NewReader(in)); err == nil {
			t.Fatalf("%q accepted", in)
		}
	}
}

func TestPlacementFromRankOrderCapacity(t *testing.T) {
	a := &alloc.Allocation{Nodes: []int32{7}, ProcsPerNode: []int{2}}
	if _, err := PlacementFromRankOrder([]int32{0, 1, 2}, a); err == nil {
		t.Fatal("3 ranks on a 2-processor allocation accepted")
	}
}

func TestNodeListRoundTrip(t *testing.T) {
	a := &alloc.Allocation{Nodes: []int32{9, 1, 30}, ProcsPerNode: []int{16, 8, 16}}
	// Write the allocation the way a launcher wrapper captures it from
	// the scheduler: a comment header, then "node procs" lines.
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# allocation: %d nodes, %d processors\n", len(a.Nodes), a.TotalProcs())
	for i, m := range a.Nodes {
		fmt.Fprintf(&buf, "%d %d\n", m, a.ProcsPerNode[i])
	}
	back, err := ReadNodeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Nodes) != 3 {
		t.Fatalf("read %d nodes", len(back.Nodes))
	}
	for i := range a.Nodes {
		if back.Nodes[i] != a.Nodes[i] || back.ProcsPerNode[i] != a.ProcsPerNode[i] {
			t.Fatalf("node %d: got (%d,%d), want (%d,%d)", i,
				back.Nodes[i], back.ProcsPerNode[i], a.Nodes[i], a.ProcsPerNode[i])
		}
	}
}

func TestReadNodeListDefaultsAndErrors(t *testing.T) {
	a, err := ReadNodeList(strings.NewReader("5\n8 24\n"))
	if err != nil {
		t.Fatal(err)
	}
	if a.ProcsPerNode[0] != alloc.DefaultProcsPerNode || a.ProcsPerNode[1] != 24 {
		t.Fatalf("capacities %v", a.ProcsPerNode)
	}
	// Node ids past int32 must not wrap: 4294967297 is 1 mod 2^32, and
	// 2147483648 would turn negative.
	for _, in := range []string{"", "x", "1 2 3", "3\n3\n", "-4", "5 0", "4294967297 16", "2147483648"} {
		if _, err := ReadNodeList(strings.NewReader(in)); err == nil {
			t.Fatalf("%q accepted", in)
		}
	}
}

func TestRankOrderPreservesMetrics(t *testing.T) {
	// The placement reconstructed from the emitted file must induce
	// identical mapping metrics — the file is a faithful carrier.
	topo := torus.NewHopper3D(4, 4, 4)
	a := &alloc.Allocation{Nodes: []int32{2, 17, 40, 63}, ProcsPerNode: []int{4, 4, 4, 4}}
	groupOf := make([]int32, 16)
	for r := range groupOf {
		groupOf[r] = int32((r * 7) % 4)
	}
	pl := &metrics.Placement{GroupOf: groupOf, NodeOf: a.Nodes}

	var buf bytes.Buffer
	if err := WriteRankOrder(&buf, pl, a); err != nil {
		t.Fatal(err)
	}
	order, err := ReadRankOrder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := PlacementFromRankOrder(order, a)
	if err != nil {
		t.Fatal(err)
	}
	for r := int32(0); r < 16; r++ {
		if pl.Node(r) != back.Node(r) {
			t.Fatalf("rank %d node differs", r)
		}
	}
	_ = topo // placement equality implies metric equality on any topology
}

func TestRankOrderRoundTripProperty(t *testing.T) {
	a := testAlloc(3, 11, 4, 25)
	f := func(assign [16]uint8) bool {
		groupOf := make([]int32, 16)
		for r, g := range assign {
			groupOf[r] = int32(g) % 4
		}
		pl := &metrics.Placement{GroupOf: groupOf, NodeOf: a.Nodes}
		var buf bytes.Buffer
		if err := WriteRankOrder(&buf, pl, a); err != nil {
			// Over-capacity assignments are legitimately rejected.
			counts := map[int32]int{}
			for _, g := range groupOf {
				counts[g]++
			}
			for _, c := range counts {
				if c > 4 {
					return true
				}
			}
			return false
		}
		order, err := ReadRankOrder(&buf)
		if err != nil {
			return false
		}
		back, err := PlacementFromRankOrder(order, a)
		if err != nil {
			return false
		}
		for r := int32(0); r < 16; r++ {
			if back.Node(r) != pl.Node(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
