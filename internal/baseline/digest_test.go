package baseline

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/alloc"
	"repro/internal/fattree"
	"repro/internal/graph"
	"repro/internal/torus"
)

// TestRecursiveBipartitionDigests pins the bytes of TMAP and SMAP on
// 37- and 50-node allocations of a torus, whose coordinates give TMAP
// its geometric node split, and of a fat tree, which has none, so both
// split the nodes in allocation order. Odd node counts give uneven
// halves at many levels. The task graphs carry non-unit vertex
// weights, which both mappers must ignore, and TMAP must not fall back
// to DEF, so its digest pins the geometric split. The mappers'
// placements must reproduce these digests unedited.
func TestRecursiveBipartitionDigests(t *testing.T) {
	want := map[string]string{
		"SMAP/fattree/37": "2568e235b0d9f8e8",
		"SMAP/fattree/50": "89261837b2e186aa",
		"SMAP/torus/37":   "3b7aa44b71f342fe",
		"SMAP/torus/50":   "a7e009934f2646ac",
		"TMAP/fattree/37": "2568e235b0d9f8e8",
		"TMAP/fattree/50": "89261837b2e186aa",
		"TMAP/torus/37":   "b0bef85d9d6c6b76",
		"TMAP/torus/50":   "464d300ad6435c44",
	}

	type machine struct {
		name string
		topo torus.Topology
		a    *alloc.Allocation
	}
	var machines []machine
	tor := torus.NewHopper3D(8, 8, 8)
	ft, err := fattree.New(8, 10e9, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{37, 50} {
		ta, err := alloc.Generate(tor, n, alloc.Config{Mode: alloc.Sparse, Seed: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		fa, err := alloc.SparseHosts(ft.Hosts(), n, 16, int64(n))
		if err != nil {
			t.Fatal(err)
		}
		machines = append(machines,
			machine{fmt.Sprintf("torus/%d", n), tor, ta},
			machine{fmt.Sprintf("fattree/%d", n), ft, fa})
	}

	got := map[string]string{}
	for _, m := range machines {
		n := len(m.a.Nodes)
		g := graph.RandomConnected(n, 3*n, 40, int64(n)+1)
		rng := rand.New(rand.NewSource(int64(n)))
		g.VW = make([]int64, n)
		for i := range g.VW {
			g.VW[i] = 1 + rng.Int63n(5)
		}
		tmap := TMAP(g, m.topo, m.a, 7)
		if slices.Equal(tmap, DEF(n, m.a)) {
			t.Errorf("%s: TMAP fell back to DEF, so its digest pins no bisection", m.name)
		}
		got["TMAP/"+m.name] = placementDigest(tmap)
		got["SMAP/"+m.name] = placementDigest(SMAP(g, m.topo, m.a, 7))
	}
	for name, d := range got {
		if want[name] != d {
			t.Errorf("%s: digest %s, want %s", name, d, want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: not run", name)
		}
	}
}

// placementDigest is the FNV-64a digest of a placement.
func placementDigest(nodeOf []int32) string {
	h := fnv.New64a()
	binary.Write(h, binary.LittleEndian, nodeOf)
	return fmt.Sprintf("%016x", h.Sum64())
}
