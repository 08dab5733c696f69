package dragonfly

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/routecache"
)

func mustNew(t testing.TB, h int) *Dragonfly {
	t.Helper()
	d, err := New(h, 10e9, 5e9, 4e9)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 1e9, 1e9, 1e9); err == nil {
		t.Error("h=0 accepted")
	}
	if _, err := New(2, 0, 1e9, 1e9); err == nil {
		t.Error("zero bandwidth accepted")
	}
}

func TestCanonicalCounts(t *testing.T) {
	for _, h := range []int{1, 2, 3} {
		d := mustNew(t, h)
		a := 2 * h
		g := a*h + 1
		if d.Groups() != g || d.RoutersPerGroup() != a {
			t.Fatalf("h=%d: groups %d routers %d, want %d %d", h, d.Groups(), d.RoutersPerGroup(), g, a)
		}
		if want := g * a * h; d.Hosts() != want {
			t.Fatalf("h=%d: hosts %d, want %d", h, d.Hosts(), want)
		}
		// Directed links: hosts + local mesh + one global per pair.
		want := 2 * (d.Hosts() + g*a*(a-1)/2 + g*(g-1)/2)
		if d.Links() != want {
			t.Fatalf("h=%d: links %d, want %d", h, d.Links(), want)
		}
	}
}

func TestRouterDegrees(t *testing.T) {
	d := mustNew(t, 2) // a=4, g=9, p=2
	for v := 0; v < d.Nodes(); v++ {
		deg := len(d.NeighborNodes(v, nil))
		if v < d.Hosts() {
			if deg != 1 {
				t.Fatalf("host %d degree %d", v, deg)
			}
			continue
		}
		// p hosts + (a-1) local + h global.
		if want := d.p + d.a - 1 + d.h; deg != want {
			t.Fatalf("router %d degree %d, want %d", v, deg, want)
		}
	}
}

func TestGlobalLinksConsistent(t *testing.T) {
	d := mustNew(t, 2)
	// Every group pair has exactly one global link, endpoints agree
	// from both sides, and every router carries exactly h globals.
	globalCount := make(map[int]int)
	for gi := 0; gi < d.g; gi++ {
		for gj := 0; gj < d.g; gj++ {
			if gi == gj {
				continue
			}
			ri, rj := d.globalEndpoints(gi, gj)
			ri2, rj2 := d.globalEndpoints(gj, gi)
			if ri != rj2 || rj != ri2 {
				t.Fatalf("asymmetric global link between %d and %d", gi, gj)
			}
			if d.routerGroup(ri) != gi || d.routerGroup(rj) != gj {
				t.Fatalf("global link endpoints in wrong groups")
			}
			if gi < gj {
				globalCount[ri]++
				globalCount[rj]++
			}
		}
	}
	for r, c := range globalCount {
		if c != d.h {
			t.Fatalf("router %d has %d global links, want %d", r, c, d.h)
		}
	}
}

func validateRoute(t *testing.T, d *Dragonfly, a, b int, route []int32) {
	t.Helper()
	cur := a
	for _, l := range route {
		from, to := d.LinkInfo(int(l))
		if from != cur {
			t.Fatalf("route %d->%d: link %d leaves %d, expected %d", a, b, l, from, cur)
		}
		cur = to
	}
	if cur != b {
		t.Fatalf("route %d->%d ends at %d", a, b, cur)
	}
}

func TestRouteMatchesHopDist(t *testing.T) {
	d := mustNew(t, 2)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		a, b := rng.Intn(d.Hosts()), rng.Intn(d.Hosts())
		route := d.Route(a, b, nil)
		validateRoute(t, d, a, b, route)
		if len(route) != d.HopDist(a, b) {
			t.Fatalf("route %d->%d has %d links, HopDist %d", a, b, len(route), d.HopDist(a, b))
		}
	}
}

// bfsDist is the raw graph distance, for the routing-distance bound.
func bfsDist(d *Dragonfly, a, b int) int {
	if a == b {
		return 0
	}
	dist := make([]int, d.Nodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[a] = 0
	queue := []int{a}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range d.NeighborNodes(v, nil) {
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

func TestHopDistIsRoutingDistance(t *testing.T) {
	// HopDist equals the hierarchical routing distance: at least the
	// graph distance, at most one hop more (the two-global shortcut
	// minimal routing never takes), and never above the diameter.
	d := mustNew(t, 2)
	rng := rand.New(rand.NewSource(3))
	shortcuts := 0
	for trial := 0; trial < 150; trial++ {
		a, b := rng.Intn(d.Nodes()), rng.Intn(d.Nodes())
		hd := d.HopDist(a, b)
		gd := bfsDist(d, a, b)
		if hd < gd || hd > gd+1 {
			t.Fatalf("HopDist(%d,%d)=%d outside [graph %d, graph+1]", a, b, hd, gd)
		}
		if hd > d.Diameter() {
			t.Fatalf("HopDist %d exceeds diameter %d", hd, d.Diameter())
		}
		if hd == gd+1 {
			shortcuts++
		}
	}
	t.Logf("%d of 150 sampled pairs had a shortcut path", shortcuts)
}

func TestHopDistCases(t *testing.T) {
	d := mustNew(t, 2) // p=2: hosts 0,1 under router 0
	if got := d.HopDist(0, 0); got != 0 {
		t.Fatalf("self distance %d", got)
	}
	if got := d.HopDist(0, 1); got != 2 {
		t.Fatalf("same-router hosts: %d, want 2", got)
	}
	// Hosts under different routers of group 0: up, one local, down.
	if got := d.HopDist(0, d.p); got != 3 {
		t.Fatalf("same-group hosts: %d, want 3", got)
	}
	// Inter-group distance is between 3 (both endpoints on the
	// global-link routers) and 5.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		a := rng.Intn(d.Hosts())
		b := rng.Intn(d.Hosts())
		ga := a / d.p / d.a
		gb := b / d.p / d.a
		if ga == gb {
			continue
		}
		if got := d.HopDist(a, b); got < 3 || got > 5 {
			t.Fatalf("inter-group host distance %d outside [3,5]", got)
		}
	}
}

func TestRoutePanicsOnRouterEndpoint(t *testing.T) {
	d := mustNew(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for router endpoint")
		}
	}()
	d.Route(0, d.Hosts(), nil)
}

func TestUniqueMinimalRoute(t *testing.T) {
	d := mustNew(t, 2)
	if d.NumMinimalRoutes(0, 0) != 0 {
		t.Fatal("self pair has routes")
	}
	if d.NumMinimalRoutes(0, 5) != 1 || d.RouteScale() != 1 {
		t.Fatal("canonical dragonfly must have unique minimal routes")
	}
	calls := 0
	d.ForEachMinimalRoute(0, 5, func(route []int32) {
		calls++
		validateRoute(t, d, 0, 5, route)
	})
	if calls != 1 {
		t.Fatalf("%d routes enumerated", calls)
	}
}

func TestLinkBandwidthLevels(t *testing.T) {
	d := mustNew(t, 2)
	// Find an inter-group route touching all three levels.
	a, b := 0, d.Hosts()-1
	route := d.Route(a, b, nil)
	sawHost, sawLocal, sawGlobal := false, false, false
	for _, l := range route {
		switch d.LinkBW(int(l)) {
		case 10e9:
			sawHost = true
		case 5e9:
			sawLocal = true
		case 4e9:
			sawGlobal = true
		}
	}
	if !sawHost || !sawGlobal {
		t.Fatalf("route misses host or global level: %v", route)
	}
	_ = sawLocal // local hops may be absent when endpoints own the link
}

func TestMappingPipelineOnDragonfly(t *testing.T) {
	d := mustNew(t, 2) // 72 hosts
	a, err := SparseHosts(d, 24, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := routecache.New(d, a.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.RandomConnected(24, 72, 60, 7)
	block := append([]int32(nil), a.Nodes[:24]...)
	refined := append([]int32(nil), block...)
	core.RefineWH(g, tab, refined, core.RefineOptions{})
	whBlock := metrics.WeightedHops(g, d, block)
	whRefined := metrics.WeightedHops(g, d, refined)
	if whRefined > whBlock {
		t.Fatalf("Algorithm 2 regressed WH on dragonfly: %d -> %d", whBlock, whRefined)
	}
	uwh := core.MapUWH(g, tab, nil)
	pl := &metrics.Placement{NodeOf: uwh}
	m := metrics.Compute(g, d, pl)
	if m.WH <= 0 || m.MC <= 0 || m.UsedLinks == 0 {
		t.Fatalf("degenerate metrics on dragonfly: %+v", m)
	}
	// Congestion refinement under the (unique-route) static model.
	mc := append([]int32(nil), uwh...)
	core.RefineCongestion(g, tab, mc, core.VolumeCongestion, core.RefineOptions{})
	after := metrics.Compute(g, d, &metrics.Placement{NodeOf: mc})
	if after.MC > m.MC*(1+1e-9) {
		t.Fatalf("congestion refinement raised MC: %g -> %g", m.MC, after.MC)
	}
}

func TestSparseHostsValid(t *testing.T) {
	d := mustNew(t, 2)
	a, err := SparseHosts(d, 30, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalProcs() != 240 {
		t.Fatalf("procs %d", a.TotalProcs())
	}
	seen := map[int32]bool{}
	for _, hst := range a.Nodes {
		if hst < 0 || int(hst) >= d.Hosts() || seen[hst] {
			t.Fatalf("bad host %d", hst)
		}
		seen[hst] = true
	}
	if _, err := SparseHosts(d, d.Hosts()+1, 8, 1); err == nil {
		t.Fatal("oversubscription accepted")
	}
}

func TestHopDistSymmetryProperty(t *testing.T) {
	d := mustNew(t, 2)
	f := func(ai, bi uint16) bool {
		a, b := int(ai)%d.Nodes(), int(bi)%d.Nodes()
		hd := d.HopDist(a, b)
		return hd == d.HopDist(b, a) && (hd == 0) == (a == b) && hd <= d.Diameter()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
