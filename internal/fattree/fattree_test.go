package fattree

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/routecache"
)

func mustNew(t testing.TB, k int) *FatTree {
	t.Helper()
	ft, err := New(k, 10e9, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func TestNewValidation(t *testing.T) {
	for _, k := range []int{0, 1, 3, 5, -2} {
		if _, err := New(k, 1e9, 1); err == nil {
			t.Errorf("k=%d accepted", k)
		}
	}
	if _, err := New(4, 0, 1); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if _, err := New(4, 1e9, 0.5); err == nil {
		t.Error("taper < 1 accepted")
	}
}

func TestCounts(t *testing.T) {
	for _, k := range []int{2, 4, 8} {
		ft := mustNew(t, k)
		if got, want := ft.Hosts(), k*k*k/4; got != want {
			t.Errorf("k=%d: hosts %d, want %d", k, got, want)
		}
		if got, want := ft.Nodes(), k*k*k/4+k*k+k*k/4; got != want {
			t.Errorf("k=%d: nodes %d, want %d", k, got, want)
		}
		// Directed links: 2 per physical link; physical links are
		// hosts (k^3/4) + edge-agg (k*(k/2)^2) + agg-core (k*(k/2)^2).
		want := 2 * (k*k*k/4 + 2*k*(k/2)*(k/2))
		if got := ft.Links(); got != want {
			t.Errorf("k=%d: links %d, want %d", k, got, want)
		}
	}
}

func TestClassifyRoundTrip(t *testing.T) {
	ft := mustNew(t, 4)
	counts := map[Level]int{}
	for v := 0; v < ft.Nodes(); v++ {
		lv, a, b := ft.Classify(v)
		counts[lv]++
		var back int
		switch lv {
		case Host:
			back = ft.hostID(a, b/ft.half, b%ft.half)
		case Edge:
			back = ft.edgeID(a, b)
		case Agg:
			back = ft.aggID(a, b)
		case Core:
			back = ft.coreID(a, b)
		}
		if back != v {
			t.Fatalf("classify(%d) = (%v,%d,%d) does not round-trip (got %d)", v, lv, a, b, back)
		}
	}
	if counts[Host] != 16 || counts[Edge] != 8 || counts[Agg] != 8 || counts[Core] != 4 {
		t.Fatalf("k=4 level counts: %v", counts)
	}
}

func TestAdjacencySymmetric(t *testing.T) {
	ft := mustNew(t, 4)
	for v := 0; v < ft.Nodes(); v++ {
		var nb []int32
		nb = ft.NeighborNodes(v, nb)
		for _, u := range nb {
			var back []int32
			back = ft.NeighborNodes(int(u), back)
			found := false
			for _, w := range back {
				if int(w) == v {
					found = true
				}
			}
			if !found {
				t.Fatalf("adjacency not symmetric: %d->%d", v, u)
			}
		}
	}
}

func TestDegrees(t *testing.T) {
	ft := mustNew(t, 4)
	for v := 0; v < ft.Nodes(); v++ {
		lv, _, _ := ft.Classify(v)
		deg := len(ft.NeighborNodes(v, nil))
		want := map[Level]int{Host: 1, Edge: 4, Agg: 4, Core: 4}[lv]
		if deg != want {
			t.Fatalf("vertex %d (level %v): degree %d, want %d", v, lv, deg, want)
		}
	}
}

// bfsDist computes exact shortest-path distance for validation.
func bfsDist(ft *FatTree, a, b int) int {
	if a == b {
		return 0
	}
	dist := make([]int, ft.Nodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[a] = 0
	queue := []int{a}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range ft.NeighborNodes(v, nil) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				if int(u) == b {
					return dist[u]
				}
				queue = append(queue, int(u))
			}
		}
	}
	return -1
}

func TestHopDistMatchesBFS(t *testing.T) {
	ft := mustNew(t, 4)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		a, b := rng.Intn(ft.Nodes()), rng.Intn(ft.Nodes())
		if got, want := ft.HopDist(a, b), bfsDist(ft, a, b); got != want {
			la, pa, ia := ft.Classify(a)
			lb, pb, ib := ft.Classify(b)
			t.Fatalf("HopDist(%d,%d) = %d, BFS %d (a=%v/%d/%d b=%v/%d/%d)",
				a, b, got, want, la, pa, ia, lb, pb, ib)
		}
	}
}

func TestHopDistMatchesBFSK6(t *testing.T) {
	ft := mustNew(t, 6)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 150; trial++ {
		a, b := rng.Intn(ft.Nodes()), rng.Intn(ft.Nodes())
		if got, want := ft.HopDist(a, b), bfsDist(ft, a, b); got != want {
			t.Fatalf("k=6 HopDist(%d,%d) = %d, BFS %d", a, b, got, want)
		}
	}
}

func TestDiameter(t *testing.T) {
	ft := mustNew(t, 4)
	max := 0
	for a := 0; a < ft.Nodes(); a++ {
		for b := a + 1; b < ft.Nodes(); b++ {
			if d := ft.HopDist(a, b); d > max {
				max = d
			}
		}
	}
	if max != ft.Diameter() {
		t.Fatalf("true diameter %d, Diameter() %d", max, ft.Diameter())
	}
}

func validateRoute(t *testing.T, ft *FatTree, a, b int, route []int32) {
	t.Helper()
	cur := a
	for _, l := range route {
		from, to := ft.LinkInfo(int(l))
		if from != cur {
			t.Fatalf("route %d->%d: link %d leaves %d, expected %d", a, b, l, from, cur)
		}
		cur = to
	}
	if cur != b {
		t.Fatalf("route %d->%d ends at %d", a, b, cur)
	}
}

func TestRouteValidAndShortest(t *testing.T) {
	ft := mustNew(t, 4)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		a, b := rng.Intn(ft.Hosts()), rng.Intn(ft.Hosts())
		route := ft.Route(a, b, nil)
		validateRoute(t, ft, a, b, route)
		if len(route) != ft.HopDist(a, b) {
			t.Fatalf("route %d->%d has %d links, HopDist %d", a, b, len(route), ft.HopDist(a, b))
		}
	}
}

func TestRoutePanicsOnSwitchEndpoint(t *testing.T) {
	ft := mustNew(t, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for switch endpoint")
		}
	}()
	ft.Route(0, ft.Hosts(), nil)
}

func TestMinimalRoutesECMPWidths(t *testing.T) {
	ft := mustNew(t, 4)
	// Hosts 0 and 1 share edge switch 0 of pod 0.
	if got := ft.NumMinimalRoutes(0, 1); got != 1 {
		t.Fatalf("same-edge ECMP width %d, want 1", got)
	}
	// Hosts 0 and 2 are in pod 0, different edge switches.
	if got := ft.NumMinimalRoutes(0, 2); got != 2 {
		t.Fatalf("same-pod ECMP width %d, want k/2=2", got)
	}
	// Host 0 (pod 0) and host 4 (pod 1).
	if got := ft.NumMinimalRoutes(0, 4); got != 4 {
		t.Fatalf("inter-pod ECMP width %d, want (k/2)^2=4", got)
	}
}

func TestForEachMinimalRouteValidDistinct(t *testing.T) {
	ft := mustNew(t, 4)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		a, b := rng.Intn(ft.Hosts()), rng.Intn(ft.Hosts())
		seen := map[string]bool{}
		hops := ft.HopDist(a, b)
		n := ft.ForEachMinimalRoute(a, b, func(route []int32) {
			validateRoute(t, ft, a, b, route)
			if len(route) != hops {
				t.Fatalf("minimal route %d->%d length %d, want %d", a, b, len(route), hops)
			}
			seen[fmt.Sprint(route)] = true
		})
		if n != ft.NumMinimalRoutes(a, b) {
			t.Fatalf("enumerated %d, NumMinimalRoutes %d", n, ft.NumMinimalRoutes(a, b))
		}
		if a != b && len(seen) != n {
			t.Fatalf("%d->%d: %d distinct of %d routes", a, b, len(seen), n)
		}
	}
}

func TestStaticRouteAmongMinimal(t *testing.T) {
	ft := mustNew(t, 6)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		a, b := rng.Intn(ft.Hosts()), rng.Intn(ft.Hosts())
		if a == b {
			continue
		}
		static := fmt.Sprint(ft.Route(a, b, nil))
		found := false
		ft.ForEachMinimalRoute(a, b, func(route []int32) {
			if fmt.Sprint(route) == static {
				found = true
			}
		})
		if !found {
			t.Fatalf("static route %d->%d not among minimal routes", a, b)
		}
	}
}

func TestRouteScaleDividesECMPWidths(t *testing.T) {
	for _, k := range []int{2, 4, 8, 16} {
		ft := mustNew(t, k)
		scale := ft.RouteScale()
		for _, p := range []int64{1, int64(k / 2), int64(k/2) * int64(k/2)} {
			if scale%p != 0 {
				t.Fatalf("k=%d: RouteScale %d not divisible by %d", k, scale, p)
			}
		}
	}
}

func TestTaperReducesUplinkBandwidth(t *testing.T) {
	ft, err := New(4, 8e9, 2)
	if err != nil {
		t.Fatal(err)
	}
	// host-edge links at 8, edge-agg at 4, agg-core at 2 GB/s.
	route := ft.Route(0, ft.Hosts()-1, nil) // inter-pod: 6 links, 2 at each level
	want := []float64{8e9, 4e9, 2e9, 2e9, 4e9, 8e9}
	for i, l := range route {
		if got := ft.LinkBW(int(l)); got != want[i] {
			t.Fatalf("link %d of inter-pod route: bw %g, want %g", i, got, want[i])
		}
	}
}

func TestLinkInfoInvertsLinkID(t *testing.T) {
	ft := mustNew(t, 4)
	for l := 0; l < ft.Links(); l++ {
		from, to := ft.LinkInfo(l)
		if got := ft.linkID(from, to); got != int32(l) {
			t.Fatalf("LinkInfo(%d) = (%d,%d), linkID back = %d", l, from, to, got)
		}
	}
}

func TestSparseHostsProperties(t *testing.T) {
	ft := mustNew(t, 8)
	a, err := SparseHosts(ft, 40, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Nodes) != 40 || a.TotalProcs() != 640 {
		t.Fatalf("allocation %d nodes, %d procs", len(a.Nodes), a.TotalProcs())
	}
	seen := map[int32]bool{}
	for _, h := range a.Nodes {
		if h < 0 || int(h) >= ft.Hosts() {
			t.Fatalf("allocated non-host %d", h)
		}
		if seen[h] {
			t.Fatalf("host %d allocated twice", h)
		}
		seen[h] = true
	}
}

func TestSparseHostsErrors(t *testing.T) {
	ft := mustNew(t, 4)
	if _, err := SparseHosts(ft, 0, 16, 1); err == nil {
		t.Error("want=0 accepted")
	}
	if _, err := SparseHosts(ft, ft.Hosts()+1, 16, 1); err == nil {
		t.Error("oversubscription accepted")
	}
}

func TestMappingPipelineOnFatTree(t *testing.T) {
	// End-to-end: the paper's WH algorithms run unchanged on a fat
	// tree and improve over a block mapping.
	ft := mustNew(t, 8)
	a, err := SparseHosts(ft, 32, 16, 9)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := routecache.New(ft, a.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.RandomConnected(32, 96, 50, 11)
	block := make([]int32, 32)
	copy(block, a.Nodes[:32])
	nodeOf := core.MapUWH(g, tab, nil)
	whBlock := metrics.WeightedHops(g, ft, block)
	whUWH := metrics.WeightedHops(g, ft, nodeOf)
	if whUWH > whBlock {
		t.Fatalf("UWH on fat tree (%d) worse than block mapping (%d)", whUWH, whBlock)
	}
	// Congestion refinement (static ECMP routes) runs too.
	mc := append([]int32(nil), nodeOf...)
	core.RefineCongestion(g, tab, mc, core.VolumeCongestion, core.RefineOptions{})
	pl := &metrics.Placement{NodeOf: mc}
	if m := metrics.Compute(g, ft, pl); m.MC <= 0 {
		t.Fatalf("degenerate MC %g", m.MC)
	}
	// Adaptive (ECMP-spread) refinement as well.
	ad := append([]int32(nil), nodeOf...)
	core.RefineCongestionAdaptive(g, tab, ad, core.VolumeCongestion, core.RefineOptions{})
	if m := metrics.ComputeAdaptive(g, ft, &metrics.Placement{NodeOf: ad}); m.EMC <= 0 {
		t.Fatalf("degenerate EMC %g", m.EMC)
	}
}

func TestHopDistProperty(t *testing.T) {
	ft := mustNew(t, 4)
	f := func(ai, bi uint16) bool {
		a, b := int(ai)%ft.Nodes(), int(bi)%ft.Nodes()
		d := ft.HopDist(a, b)
		if d != ft.HopDist(b, a) {
			return false // symmetry
		}
		if (d == 0) != (a == b) {
			return false // identity
		}
		return d <= ft.Diameter()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
