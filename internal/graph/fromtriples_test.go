package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/ds"
)

// fromTriplesOracle is the comparison-sort CSR builder FromTriples
// replaced: sort the triples by (U,V), merge equal keys by summing
// weights, lay the rows out. It is the reference the bucketed builder
// must match byte for byte.
func fromTriplesOracle(n int, triples []ds.EdgeTriple, vw []int64) *Graph {
	sort.Slice(triples, func(i, j int) bool {
		if triples[i].U != triples[j].U {
			return triples[i].U < triples[j].U
		}
		return triples[i].V < triples[j].V
	})
	out := triples[:0]
	for _, t := range triples {
		if len(out) > 0 && out[len(out)-1].U == t.U && out[len(out)-1].V == t.V {
			out[len(out)-1].W += t.W
			continue
		}
		out = append(out, t)
	}
	g := &Graph{
		Xadj: make([]int32, n+1),
		Adj:  make([]int32, len(out)),
		EW:   make([]int64, len(out)),
		VW:   vw,
	}
	for _, t := range out {
		g.Xadj[t.U+1]++
	}
	for v := 0; v < n; v++ {
		g.Xadj[v+1] += g.Xadj[v]
	}
	for i, t := range out {
		g.Adj[i] = t.V
		g.EW[i] = t.W
	}
	return g
}

// checkFromTriples builds the same triples with FromTriples and the
// oracle, each on its own copy, and fails on any difference.
func checkFromTriples(t *testing.T, name string, n int, triples []ds.EdgeTriple) {
	t.Helper()
	vw := make([]int64, n)
	for i := range vw {
		vw[i] = int64(i + 1)
	}
	got := FromTriples(n, append([]ds.EdgeTriple(nil), triples...), vw)
	want := fromTriplesOracle(n, append([]ds.EdgeTriple(nil), triples...), vw)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s (n=%d, %d triples): FromTriples diverged from the sort-and-merge oracle\ngot  %+v\nwant %+v",
			name, n, len(triples), got, want)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// randomTriples draws m loop-free triples over n vertices, with
// neighbours from a pool of size vpool (a small pool forces duplicate
// keys) and weights in [-3, 9].
func randomTriples(rng *rand.Rand, n, m, vpool int) []ds.EdgeTriple {
	var out []ds.EdgeTriple
	for len(out) < m {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(vpool))
		if u == v {
			continue
		}
		out = append(out, ds.EdgeTriple{U: u, V: v, W: int64(rng.Intn(13) - 3)})
	}
	return out
}

func TestFromTriplesMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checkFromTriples(t, "no edges", 5, nil)
	checkFromTriples(t, "n=1, no edges", 1, nil)
	checkFromTriples(t, "n=2, one edge", 2, []ds.EdgeTriple{{U: 1, V: 0, W: 4}})
	for round := 0; round < 30; round++ {
		n := 2 + rng.Intn(200)
		checkFromTriples(t, "sparse", n, randomTriples(rng, n, n/2, n))
		checkFromTriples(t, "dense", n, randomTriples(rng, n, 8*n, n))
		checkFromTriples(t, "heavy duplicates", n, randomTriples(rng, n, 6*n, min(n, 3)))
	}

	// Rows far past the insertion-sort cutoff: a few hubs adjacent to
	// every other vertex, each edge staged several times.
	n := 4 * insertionSortMax
	var hubs []ds.EdgeTriple
	for rep := 0; rep < 3; rep++ {
		for _, h := range []int32{0, 5, int32(n - 1)} {
			for v := int32(0); v < int32(n); v++ {
				if v != h {
					hubs = append(hubs, ds.EdgeTriple{U: h, V: v, W: int64(rep + 1)}, ds.EdgeTriple{U: v, V: h, W: 2})
				}
			}
		}
	}
	rng.Shuffle(len(hubs), func(i, j int) { hubs[i], hubs[j] = hubs[j], hubs[i] })
	checkFromTriples(t, "long rows", n, hubs)

	// Rows exactly at and just past the cutoff.
	for _, deg := range []int{insertionSortMax, insertionSortMax + 1} {
		var row []ds.EdgeTriple
		for v := deg; v >= 1; v-- {
			row = append(row, ds.EdgeTriple{U: 0, V: int32(v), W: int64(v)})
		}
		checkFromTriples(t, "cutoff row", deg+1, row)
	}

	// Pre-sorted and reverse-sorted input, with duplicate keys.
	sorted := randomTriples(rng, 300, 3000, 300)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].U != sorted[j].U {
			return sorted[i].U < sorted[j].U
		}
		return sorted[i].V < sorted[j].V
	})
	checkFromTriples(t, "pre-sorted", 300, sorted)
	reversed := make([]ds.EdgeTriple, len(sorted))
	for i, tr := range sorted {
		reversed[len(sorted)-1-i] = tr
	}
	checkFromTriples(t, "reverse-sorted", 300, reversed)

	// Empty rows everywhere but a handful of vertices.
	var holes []ds.EdgeTriple
	for i := 0; i < 200; i++ {
		holes = append(holes, ds.EdgeTriple{U: int32(rng.Intn(4) * 97), V: int32(1 + rng.Intn(390)), W: 1})
	}
	checkFromTriples(t, "empty rows", 400, holes)
}

// FuzzFromTriples runs FromTriples and the oracle on fuzzed triples:
// the first byte picks n, then every three bytes are one triple
// (U and V reduced mod n, self loops skipped, a signed weight).
func FuzzFromTriples(f *testing.F) {
	f.Add([]byte{4, 0, 1, 5, 1, 0, 5, 0, 1, 250, 3, 2, 1})
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0, 9})
	long := []byte{63}
	for v := 62; v >= 1; v-- {
		long = append(long, 0, byte(v), byte(v), byte(v), 0, 1)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])
		var triples []ds.EdgeTriple
		for b := data[1:]; len(b) >= 3; b = b[3:] {
			u, v := int32(int(b[0])%n), int32(int(b[1])%n)
			if u == v {
				continue
			}
			triples = append(triples, ds.EdgeTriple{U: u, V: v, W: int64(int8(b[2]))})
		}
		checkFromTriples(t, "fuzz", n, triples)
	})
}

// BenchmarkFromTriples builds a launch-shape task graph (1024 vertices,
// ~14k stored edges) from the staging Symmetrize hands it: both
// directions of every stored edge, interleaved, ~28k triples with every
// key staged twice.
func BenchmarkFromTriples(b *testing.B) {
	g := RandomConnected(1024, 6*1024, 100, 1)
	var staged []ds.EdgeTriple
	for u := 0; u < g.N(); u++ {
		for i := g.Xadj[u]; i < g.Xadj[u+1]; i++ {
			staged = append(staged,
				ds.EdgeTriple{U: int32(u), V: g.Adj[i], W: g.EW[i]},
				ds.EdgeTriple{U: g.Adj[i], V: int32(u), W: g.EW[i]})
		}
	}
	scratch := make([]ds.EdgeTriple, len(staged))
	b.ReportAllocs()
	for b.Loop() {
		copy(scratch, staged)
		FromTriples(g.N(), scratch, nil)
	}
}
