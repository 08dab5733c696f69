package routecache

import (
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/dragonfly"
	"repro/internal/fattree"
	"repro/internal/torus"
)

// checkView verifies a cached view answers exactly like its base
// topology for every allocated pair (and a sample of unallocated
// pairs, which must fall through to the base).
func checkView(t *testing.T, base torus.Topology, nodes []int32) {
	t.Helper()
	view, err := New(base, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if view.Nodes() != base.Nodes() || view.Links() != base.Links() || view.Diameter() != base.Diameter() {
		t.Fatal("delegated scalars diverge")
	}
	var want, got []int32
	for _, a := range nodes {
		for _, b := range nodes {
			if view.HopDist(int(a), int(b)) != base.HopDist(int(a), int(b)) {
				t.Fatalf("HopDist(%d,%d) diverged", a, b)
			}
			want = base.Route(int(a), int(b), want[:0])
			got = view.Route(int(a), int(b), got[:0])
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("Route(%d,%d) diverged: base %v view %v", a, b, want, got)
			}
		}
	}
	// Unwrap must reach the base topology.
	if u, ok := view.(torus.Unwrapper); !ok || u.Unwrap() != base {
		t.Fatal("Unwrap did not reach the base topology")
	}
	// Multipath capability must be preserved exactly.
	_, baseMP := base.(torus.MultipathTopology)
	_, viewMP := view.(torus.MultipathTopology)
	if baseMP != viewMP {
		t.Fatalf("multipath capability changed: base %v view %v", baseMP, viewMP)
	}
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
