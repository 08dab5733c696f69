package torus

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func factorial(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}

// validateRoute checks that links chain from a to b and returns the
// hop count.
func validateRoute(t *testing.T, topo *Torus, a, b int, route []int32) int {
	t.Helper()
	cur := a
	for _, l := range route {
		from, _, _, to := topo.LinkInfo(int(l))
		if from != cur {
			t.Fatalf("route link %d starts at %d, expected %d", l, from, cur)
		}
		cur = to
	}
	if cur != b {
		t.Fatalf("route ends at %d, want %d", cur, b)
	}
	return len(route)
}

func TestNumMinimalRoutesFactorial(t *testing.T) {
	topo := New([]int{4, 4, 4}, []float64{1e9, 1e9, 1e9})
	cases := []struct {
		a, b []int
		want int
	}{
		{[]int{0, 0, 0}, []int{0, 0, 0}, 0},
		{[]int{0, 0, 0}, []int{2, 0, 0}, 1},
		{[]int{0, 0, 0}, []int{1, 1, 0}, 2},
		{[]int{0, 0, 0}, []int{1, 2, 1}, 6},
		{[]int{1, 3, 2}, []int{1, 0, 2}, 1}, // wrap on y only
	}
	for _, c := range cases {
		a, b := topo.NodeAt(c.a), topo.NodeAt(c.b)
		if got := topo.NumMinimalRoutes(a, b); got != c.want {
			t.Errorf("NumMinimalRoutes(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestForEachMinimalRouteValidAndDistinct(t *testing.T) {
	topo := New([]int{4, 3, 5}, []float64{1e9, 1e9, 1e9})
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		a, b := rng.Intn(topo.Nodes()), rng.Intn(topo.Nodes())
		want := topo.NumMinimalRoutes(a, b)
		seen := map[string]bool{}
		n := topo.ForEachMinimalRoute(a, b, func(route []int32) {
			if got := validateRoute(t, topo, a, b, route); got != topo.HopDist(a, b) {
				t.Fatalf("minimal route a=%d b=%d has %d links, HopDist=%d", a, b, got, topo.HopDist(a, b))
			}
			seen[fmt.Sprint(route)] = true
		})
		if n != want {
			t.Fatalf("a=%d b=%d: enumerated %d routes, NumMinimalRoutes=%d", a, b, n, want)
		}
		if a != b && len(seen) != n {
			t.Fatalf("a=%d b=%d: %d distinct routes of %d enumerated", a, b, len(seen), n)
		}
	}
}

func TestStaticRouteAmongMinimalRoutes(t *testing.T) {
	topo := NewHopper3D(4, 4, 4)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		a, b := rng.Intn(topo.Nodes()), rng.Intn(topo.Nodes())
		if a == b {
			continue
		}
		static := fmt.Sprint(topo.Route(a, b, nil))
		found := false
		topo.ForEachMinimalRoute(a, b, func(route []int32) {
			if fmt.Sprint(route) == static {
				found = true
			}
		})
		if !found {
			t.Fatalf("static route of (%d,%d) not among the minimal routes", a, b)
		}
	}
}

func TestForEachMinimalRouteMesh(t *testing.T) {
	topo := NewMesh([]int{4, 4}, []float64{1e9, 1e9})
	a, b := topo.NodeAt([]int{0, 0}), topo.NodeAt([]int{3, 3})
	n := topo.ForEachMinimalRoute(a, b, func(route []int32) {
		validateRoute(t, topo, a, b, route)
	})
	if n != 2 {
		t.Fatalf("mesh corner-to-corner: %d routes, want 2", n)
	}
}

func TestForEachMinimalRouteSamePoint(t *testing.T) {
	topo := NewHopper3D(3, 3, 3)
	called := false
	if n := topo.ForEachMinimalRoute(5, 5, func([]int32) { called = true }); n != 0 || called {
		t.Fatalf("a==b: n=%d called=%v, want 0,false", n, called)
	}
}

func TestPermuteGeneratesAll(t *testing.T) {
	for n := 0; n <= 4; n++ {
		s := make([]int, n)
		for i := range s {
			s[i] = i
		}
		seen := map[string]bool{}
		calls := 0
		permute(s, func(p []int) {
			calls++
			cp := append([]int(nil), p...)
			sort.Ints(cp)
			for i := range cp {
				if cp[i] != i {
					t.Fatalf("n=%d: not a permutation: %v", n, p)
				}
			}
			seen[fmt.Sprint(p)] = true
		})
		want := factorial(n)
		if n == 0 {
			want = 1
		}
		if calls != want || len(seen) != want {
			t.Fatalf("n=%d: %d calls, %d distinct, want %d", n, calls, len(seen), want)
		}
	}
}

func TestMinimalRoutesProperty5D(t *testing.T) {
	topo := New([]int{3, 3, 3, 3, 3}, []float64{1e9, 1e9, 1e9, 1e9, 1e9})
	f := func(ai, bi uint16) bool {
		a := int(ai) % topo.Nodes()
		b := int(bi) % topo.Nodes()
		want := topo.NumMinimalRoutes(a, b)
		hops := topo.HopDist(a, b)
		ok := true
		n := topo.ForEachMinimalRoute(a, b, func(route []int32) {
			if len(route) != hops {
				ok = false
			}
			cur := a
			for _, l := range route {
				from, _, _, to := topo.LinkInfo(int(l))
				if from != cur {
					ok = false
				}
				cur = to
			}
			if cur != b {
				ok = false
			}
		})
		return ok && n == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRouteScaleDividesAllCounts(t *testing.T) {
	for nd := 1; nd <= 4; nd++ {
		dims, bw := make([]int, nd), make([]float64, nd)
		for i := range dims {
			dims[i], bw[i] = 3, 1
		}
		tor := New(dims, bw)
		scale := tor.RouteScale()
		for a := 0; a < tor.Nodes(); a++ {
			for b := 0; b < tor.Nodes(); b++ {
				if p := tor.NumMinimalRoutes(a, b); p > 0 && scale%int64(p) != 0 {
					t.Fatalf("%d dims: RouteScale %d not divisible by %d routes from %d to %d", nd, scale, p, a, b)
				}
			}
		}
	}
}
