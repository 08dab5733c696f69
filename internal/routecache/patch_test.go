package routecache

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/dragonfly"
	"repro/internal/fattree"
	"repro/internal/torus"
)

// family is one topology family with a sparse 16-node allocation.
type family struct {
	name  string
	base  torus.Topology
	nodes []int32
}

// families returns a torus, a fat tree and a dragonfly, each with a
// sparse allocation of 16 nodes.
func families(t *testing.T) []family {
	t.Helper()
	topo := torus.NewHopper3D(6, 6, 6)
	ta, err := alloc.Generate(topo, 16, alloc.Config{Mode: alloc.Sparse, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ft, err := fattree.New(8, 10e9, 2)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := fattree.SparseHosts(ft, 16, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dragonfly.New(2, 10e9, 5e9, 4e9)
	if err != nil {
		t.Fatal(err)
	}
	da, err := dragonfly.SparseHosts(d, 16, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	return []family{{"torus", topo, ta.Nodes}, {"fattree", ft, fa.Nodes}, {"dragonfly", d, da.Nodes}}
}

func TestPatchRemoveNode(t *testing.T) {
	for _, f := range families(t) {
		prev, err := New(f.base, f.nodes)
		if err != nil {
			t.Fatal(err)
		}
		// Drop one node: every surviving pair must be reused.
		next := append([]int32(nil), f.nodes[1:]...)
		tab, stats, err := Patch(prev, next)
		if err != nil {
			t.Fatal(err)
		}
		n := len(next)
		if stats.Total != n*n-n {
			t.Fatalf("%s: Total = %d, want %d", f.name, stats.Total, n*n-n)
		}
		if stats.Reused != stats.Total {
			t.Fatalf("%s: node removal must reuse every surviving pair: reused %d of %d", f.name, stats.Reused, stats.Total)
		}
		checkTable(t, f.base, tab, next)
	}
}

func TestPatchAddNode(t *testing.T) {
	for _, f := range families(t) {
		prev, err := New(f.base, f.nodes[:15])
		if err != nil {
			t.Fatal(err)
		}
		// Add one node: only pairs touching it recompute.
		tab, stats, err := Patch(prev, f.nodes)
		if err != nil {
			t.Fatal(err)
		}
		if oldPairs := 15*15 - 15; stats.Reused != oldPairs {
			t.Fatalf("%s: adding a node must reuse all %d old pairs, reused %d", f.name, oldPairs, stats.Reused)
		}
		if stats.Total != 16*16-16 {
			t.Fatalf("%s: Total = %d, want %d", f.name, stats.Total, 16*16-16)
		}
		checkTable(t, f.base, tab, f.nodes)
	}
}

func TestPatchMultipath(t *testing.T) {
	d, err := dragonfly.New(2, 10e9, 5e9, 4e9)
	if err != nil {
		t.Fatal(err)
	}
	a, err := dragonfly.SparseHosts(d, 12, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := New(d, a.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	next := append([]int32(nil), a.Nodes[:len(a.Nodes)-2]...)
	tab, stats, err := Patch(prev, next)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reused != stats.Total {
		t.Fatalf("shrink must reuse every pair: %d of %d", stats.Reused, stats.Total)
	}
	// checkTable also pins route enumeration, found through Unwrap.
	checkTable(t, d, tab, next)
}

func TestPatchRejectsBadNodes(t *testing.T) {
	topo := torus.NewHopper3D(4, 4, 4)
	prev, err := New(topo, []int32{0, 5, 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Patch(prev, []int32{0, 64}); err == nil {
		t.Fatal("out-of-range node must be rejected")
	}
	if _, _, err := Patch(prev, []int32{3, 3}); err == nil {
		t.Fatal("duplicate node must be rejected")
	}
}
