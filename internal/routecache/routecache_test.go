package routecache

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/alloc"
	"repro/internal/dragonfly"
	"repro/internal/fattree"
	"repro/internal/torus"
)

// checkTable verifies a table answers exactly like its base topology
// for every allocated pair in both index spaces: HopDist and Route by
// node id, DistRow and RouteLinks by allocation index, with Node and
// Local converting between the two.
func checkTable(t *testing.T, base torus.Topology, tab *Table, nodes []int32) {
	t.Helper()
	if tab.Nodes() != base.Nodes() || tab.Links() != base.Links() || tab.Diameter() != base.Diameter() {
		t.Fatal("delegated scalars diverge")
	}
	if tab.Len() != len(nodes) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(nodes))
	}
	var want, got []int32
	for i, a := range nodes {
		li := int32(i)
		if tab.Node(li) != a || tab.Local(a) != li {
			t.Fatalf("index %d: Node = %d, Local(%d) = %d", i, tab.Node(li), a, tab.Local(a))
		}
		row := tab.DistRow(li)
		if len(row) != len(nodes) {
			t.Fatalf("DistRow(%d) has %d entries, want %d", i, len(row), len(nodes))
		}
		for j, b := range nodes {
			d := base.HopDist(int(a), int(b))
			if tab.HopDist(int(a), int(b)) != d || int(row[j]) != d {
				t.Fatalf("HopDist(%d,%d) = %d, table %d, row %d", a, b, d, tab.HopDist(int(a), int(b)), row[j])
			}
			want = base.Route(int(a), int(b), want[:0])
			got = tab.Route(int(a), int(b), got[:0])
			if !slices.Equal(want, got) {
				t.Fatalf("Route(%d,%d) diverged: base %v table %v", a, b, want, got)
			}
			if links := tab.RouteLinks(li, int32(j)); !slices.Equal(want, links) {
				t.Fatalf("RouteLinks(%d,%d) diverged: base %v table %v", i, j, want, links)
			}
		}
	}
	// Every other id, inside the topology or not, has no index.
	for _, m := range []int32{-5, -1, int32(base.Nodes()), 1 << 30} {
		if l := tab.Local(m); l != -1 {
			t.Fatalf("Local(%d) = %d outside the topology, want -1", m, l)
		}
	}
	for m := int32(0); m < int32(base.Nodes()); m++ {
		if !slices.Contains(nodes, m) && tab.Local(m) != -1 {
			t.Fatalf("unallocated node %d has index %d", m, tab.Local(m))
		}
	}
	// Unwrap must reach the base topology, so the capability helpers
	// see what the base offers.
	if tab.Unwrap() != base {
		t.Fatal("Unwrap did not reach the base topology")
	}
	_, baseMP := torus.MultipathOf(base)
	_, tabMP := torus.MultipathOf(tab)
	if baseMP != tabMP {
		t.Fatalf("multipath capability changed: base %v table %v", baseMP, tabMP)
	}
}

// checkView builds the table of nodes over base cold and checks it.
func checkView(t *testing.T, base torus.Topology, nodes []int32) {
	t.Helper()
	tab, err := New(base, nodes)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, base, tab, nodes)
}

func TestCachedTorus(t *testing.T) {
	topo := torus.NewHopper3D(6, 6, 6)
	a, err := alloc.Generate(topo, 12, alloc.Config{Mode: alloc.Sparse, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	checkView(t, topo, a.Nodes)
}

func TestCachedFatTree(t *testing.T) {
	ft, err := fattree.New(8, 10e9, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := fattree.SparseHosts(ft, 16, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkView(t, ft, a.Nodes)
}

func TestCachedDragonfly(t *testing.T) {
	d, err := dragonfly.New(2, 10e9, 5e9, 4e9)
	if err != nil {
		t.Fatal(err)
	}
	a, err := dragonfly.SparseHosts(d, 12, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkView(t, d, a.Nodes)
}

func TestCachedUnallocatedFallthrough(t *testing.T) {
	topo := torus.NewHopper3D(4, 4, 4)
	nodes := []int32{0, 5, 9}
	view, err := New(topo, nodes)
	if err != nil {
		t.Fatal(err)
	}
	// 60 and 61 are not allocated: both lookups must delegate.
	if view.HopDist(60, 61) != topo.HopDist(60, 61) {
		t.Fatal("unallocated HopDist diverged")
	}
	var want, got []int32
	want = topo.Route(60, 0, want)
	got = view.Route(60, 0, got)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("unallocated Route diverged")
	}
	// Coordinate capability remains discoverable through the view.
	if _, ok := torus.CoordsOf(view); !ok {
		t.Fatal("CoordsOf must see through the cached view")
	}
}

func TestNewRejectsBadNodes(t *testing.T) {
	topo := torus.NewHopper3D(4, 4, 4)
	if _, err := New(topo, []int32{0, 64}); err == nil {
		t.Fatal("out-of-range node must be rejected")
	}
	if _, err := New(topo, []int32{3, 3}); err == nil {
		t.Fatal("duplicate node must be rejected")
	}
}
