package netsim

import (
	"math/rand"
	"testing"

	"repro/internal/dragonfly"
	"repro/internal/fattree"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/torus"
)

func TestCommOnlyAdaptiveSingleRouteMatchesStatic(t *testing.T) {
	// On a ring every pair has one minimal route, so the adaptive
	// simulator must agree with the static one exactly.
	topo := torus.New([]int{16}, []float64{1e9})
	g := graph.RandomConnected(8, 20, 40, 3)
	nodeOf := make([]int32, 8)
	for i := range nodeOf {
		nodeOf[i] = int32(i * 2)
	}
	pl := &metrics.Placement{NodeOf: nodeOf}
	p := Params{Seed: 5}
	a := CommOnly(g, topo, pl, 1024, p).Seconds
	b := CommOnlyAdaptive(g, topo, pl, 1024, p).Seconds
	if a != b {
		t.Fatalf("static %g != adaptive %g on single-route network", a, b)
	}

	// A canonical dragonfly's minimal route is unique too, so static
	// routing is adaptive routing there as well, under a grouped
	// placement with several tasks per host.
	g = graph.RandomConnected(96, 300, 50, 4)
	for h := 1; h <= 3; h++ {
		df, err := dragonfly.New(h, 10e9, 5e9, 4e9)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(h)))
		groups := min(16, df.Hosts())
		pl := &metrics.Placement{GroupOf: make([]int32, g.N()), NodeOf: make([]int32, groups)}
		for i := range pl.GroupOf {
			pl.GroupOf[i] = int32(rng.Intn(groups))
		}
		for gi, host := range rng.Perm(df.Hosts())[:groups] {
			pl.NodeOf[gi] = int32(host)
		}
		a := CommOnly(g, df, pl, 4096, p).Seconds
		b := CommOnlyAdaptive(g, df, pl, 4096, p).Seconds
		if a != b || a <= 0 {
			t.Fatalf("dragonfly h=%d: static %g != adaptive %g", h, a, b)
		}
	}
}

func TestCommOnlyAdaptiveRelievesHotLink(t *testing.T) {
	// Many equal messages from distinct sources to distinct targets,
	// all of whose static routes share the first X-dimension link.
	// Spraying over minimal routes must strictly beat static routing.
	topo := torus.NewHopper3D(6, 6, 6)
	const n = 8
	var us, vs []int32
	var ws []int64
	nodeOf := make([]int32, 2*n)
	for i := 0; i < n; i++ {
		us = append(us, int32(i))
		vs = append(vs, int32(n+i))
		ws = append(ws, 1000)
		// Sources along a YZ column at x=0; destinations at x=2..3,
		// offset in y and z so the static X-first routes pile onto
		// the same x links while minimal alternatives exist.
		nodeOf[i] = int32(topo.NodeAt([]int{0, i % 6, i / 6}))
		nodeOf[n+i] = int32(topo.NodeAt([]int{2 + i%2, (i + 1) % 6, (i/6 + 1) % 6}))
	}
	g := graph.FromEdges(2*n, us, vs, ws, nil)
	pl := &metrics.Placement{NodeOf: nodeOf}
	p := Params{Seed: 2, NoiseSigma: 1e-9}
	static := CommOnly(g, topo, pl, 1<<20, p).Seconds
	adaptive := CommOnlyAdaptive(g, topo, pl, 1<<20, p).Seconds
	if adaptive >= static {
		t.Fatalf("adaptive %g not faster than static %g on a hot-link pattern", adaptive, static)
	}
}

func TestCommOnlyAdaptiveOnFatTree(t *testing.T) {
	ft, err := fattree.New(4, 10e9, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.RandomConnected(8, 20, 50, 7)
	nodeOf := make([]int32, 8)
	for i := range nodeOf {
		nodeOf[i] = int32(i * 2)
	}
	pl := &metrics.Placement{NodeOf: nodeOf}
	p := Params{Seed: 9}
	static := CommOnly(g, ft, pl, 4096, p).Seconds
	adaptive := CommOnlyAdaptive(g, ft, pl, 4096, p).Seconds
	if static <= 0 || adaptive <= 0 {
		t.Fatalf("degenerate times: static %g adaptive %g", static, adaptive)
	}
	// ECMP spraying cannot be slower than deterministic ECMP under
	// this model when loads are symmetric; allow equality.
	if adaptive > static*1.001 {
		t.Fatalf("adaptive %g slower than static %g on full-bisection fat tree", adaptive, static)
	}
}

func TestCommOnlyAdaptiveDeterministicPerSeed(t *testing.T) {
	topo := torus.NewHopper3D(4, 4, 4)
	g := graph.RandomConnected(12, 30, 60, 11)
	nodeOf := make([]int32, 12)
	for i := range nodeOf {
		nodeOf[i] = int32(i * 5 % topo.Nodes())
	}
	pl := &metrics.Placement{NodeOf: nodeOf}
	a := CommOnlyAdaptive(g, topo, pl, 512, Params{Seed: 3}).Seconds
	b := CommOnlyAdaptive(g, topo, pl, 512, Params{Seed: 3}).Seconds
	if a != b {
		t.Fatalf("same seed, different times: %g %g", a, b)
	}
	c := CommOnlyAdaptive(g, topo, pl, 512, Params{Seed: 4}).Seconds
	if a == c {
		t.Fatalf("different seeds produced identical noise")
	}
}
