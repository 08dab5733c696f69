package torus

import "testing"

func TestMeshHopDist(t *testing.T) {
	m := NewMesh([]int{8}, []float64{1})
	// No wraparound: 0 -> 7 is 7 hops on a mesh, 1 on a torus.
	if got := m.HopDist(0, 7); got != 7 {
		t.Fatalf("mesh HopDist(0,7) = %d, want 7", got)
	}
	tor := New([]int{8}, []float64{1})
	if got := tor.HopDist(0, 7); got != 1 {
		t.Fatalf("torus HopDist(0,7) = %d, want 1", got)
	}
	if m.Diameter() != 7 || tor.Diameter() != 4 {
		t.Fatalf("diameters: mesh %d torus %d", m.Diameter(), tor.Diameter())
	}
}

func TestMeshRouteMatchesHopDist(t *testing.T) {
	m := NewMesh([]int{5, 4, 3}, []float64{1, 2, 3})
	var route []int32
	for a := 0; a < m.Nodes(); a += 3 {
		for b := 0; b < m.Nodes(); b++ {
			route = m.Route(a, b, route[:0])
			if len(route) != m.HopDist(a, b) {
				t.Fatalf("route(%d,%d) len %d != dist %d", a, b, len(route), m.HopDist(a, b))
			}
			// Route must be contiguous and never leave the mesh.
			cur := a
			for _, l := range route {
				from, _, _, to := m.LinkInfo(int(l))
				if from != cur || to < 0 {
					t.Fatalf("route(%d,%d) broken at link %d", a, b, l)
				}
				cur = to
			}
			if cur != b {
				t.Fatalf("route(%d,%d) ends at %d", a, b, cur)
			}
		}
	}
}

func TestMeshNeighborsAtCorner(t *testing.T) {
	m := NewMesh([]int{4, 4, 4}, []float64{1, 1, 1})
	// Corner (0,0,0) has exactly 3 neighbours on a mesh.
	nb := m.NeighborNodes(0, nil)
	if len(nb) != 3 {
		t.Fatalf("mesh corner degree = %d, want 3", len(nb))
	}
	// Interior node has 6.
	interior := m.NodeAt([]int{2, 2, 2})
	nb = m.NeighborNodes(interior, nil)
	if len(nb) != 6 {
		t.Fatalf("mesh interior degree = %d, want 6", len(nb))
	}
}

func TestMeshBFSDistMatchesHopDist(t *testing.T) {
	m := NewMesh([]int{4, 3, 2}, []float64{1, 1, 1})
	n := m.Nodes()
	for s := 0; s < n; s++ {
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range m.NeighborNodes(v, nil) {
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					queue = append(queue, int(u))
				}
			}
		}
		for v := 0; v < n; v++ {
			if dist[v] != m.HopDist(s, v) {
				t.Fatalf("HopDist(%d,%d) = %d, BFS = %d", s, v, m.HopDist(s, v), dist[v])
			}
		}
	}
}

func TestMappingOnMesh(t *testing.T) {
	// The whole Topology interface must work for meshes: exercise a
	// route-heavy path (diameter corner-to-corner).
	m := NewMesh([]int{6, 6}, []float64{1, 1})
	a := m.NodeAt([]int{0, 0})
	b := m.NodeAt([]int{5, 5})
	route := m.Route(a, b, nil)
	if len(route) != 10 {
		t.Fatalf("corner-to-corner route = %d links, want 10", len(route))
	}
	if m.HopDist(a, b) != m.Diameter() {
		t.Fatalf("corner pair not at diameter: %d vs %d", m.HopDist(a, b), m.Diameter())
	}
}
