package torus_test

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/dragonfly"
	"repro/internal/fattree"
	"repro/internal/torus"
)

// TestHopDistIsRouteLength pins the Topology contract the mappers and
// metrics rely on: HopDist(a, b) == len(Route(a, b)) for every pair
// of allocated nodes on the torus, the mesh, the fat tree and the
// dragonfly.
func TestHopDistIsRouteLength(t *testing.T) {
	tor := torus.NewHopper3D(6, 6, 6)
	mesh := torus.NewMesh([]int{6, 5, 4}, []float64{torus.HopperBWHigh, torus.HopperBWLow, torus.HopperBWHigh})
	ft, err := fattree.New(8, 10e9, 2)
	if err != nil {
		t.Fatal(err)
	}
	df, err := dragonfly.New(3, 10e9, 5e9, 4e9)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		topo  torus.Topology
		nodes func() (*alloc.Allocation, error)
	}{
		{"torus", tor, func() (*alloc.Allocation, error) {
			return alloc.Generate(tor, 48, alloc.Config{Mode: alloc.Sparse, Seed: 1})
		}},
		{"mesh", mesh, func() (*alloc.Allocation, error) {
			return alloc.Generate(mesh, 48, alloc.Config{Mode: alloc.Sparse, Seed: 2})
		}},
		{"fattree", ft, func() (*alloc.Allocation, error) { return alloc.SparseHosts(ft.Hosts(), 48, 16, 3) }},
		{"dragonfly", df, func() (*alloc.Allocation, error) { return alloc.SparseHosts(df.Hosts(), 64, 16, 4) }},
	}
	for _, c := range cases {
		a, err := c.nodes()
		if err != nil {
			t.Fatal(err)
		}
		var route []int32
		for _, x := range a.Nodes {
			for _, y := range a.Nodes {
				route = c.topo.Route(int(x), int(y), route[:0])
				if d := c.topo.HopDist(int(x), int(y)); d != len(route) {
					t.Fatalf("%s: HopDist(%d,%d) = %d, route has %d links", c.name, x, y, d, len(route))
				}
			}
		}
	}
}
