package partition

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/arena"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// digestGraphs are the inputs TestPartitionDigests partitions: random
// connected graphs at three sizes, a graph of several components plus
// isolated vertices (so every graph-growing run re-seeds), non-unit
// vertex weights, and unit edges stored as a nil EW.
func digestGraphs() []struct {
	name string
	g    *graph.Graph
} {
	weighted := graph.RandomConnected(700, 2100, 40, 4)
	rng := rand.New(rand.NewSource(5))
	weighted.VW = make([]int64, weighted.N())
	for i := range weighted.VW {
		weighted.VW[i] = 1 + rng.Int63n(6)
	}
	unitEW := graph.Grid2D(24, 20)
	unitEW.EW = nil
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"rc150", graph.RandomConnected(150, 300, 20, 1)},
		{"rc600", graph.RandomConnected(600, 1800, 50, 2)},
		{"rc2000", graph.RandomConnected(2000, 6000, 100, 3)},
		{"split", componentsGraph(rand.New(rand.NewSource(6)))},
		{"vw", weighted},
		{"nilEW", unitEW},
	}
}

// componentsGraph joins three random connected graphs of unequal
// sizes and 40 isolated vertices, their ids interleaved by a shuffle so
// no component owns a contiguous id range.
func componentsGraph(rng *rand.Rand) *graph.Graph {
	parts := []*graph.Graph{
		graph.RandomConnected(300, 600, 30, 7),
		graph.RandomConnected(120, 200, 30, 8),
		graph.RandomConnected(40, 40, 30, 9),
	}
	n := 40
	for _, p := range parts {
		n += p.N()
	}
	perm := rng.Perm(n)
	var us, vs []int32
	var ws []int64
	base := 0
	for _, p := range parts {
		for u := 0; u < p.N(); u++ {
			for i := p.Xadj[u]; i < p.Xadj[u+1]; i++ {
				us = append(us, int32(perm[base+u]))
				vs = append(vs, int32(perm[base+int(p.Adj[i])]))
				ws = append(ws, p.EW[i])
			}
		}
		base += p.N()
	}
	return graph.FromEdges(n, us, vs, ws, nil)
}

// unevenTargets splits total over k parts in the ratio 1:2:3 repeating,
// the remainder going to part 0.
func unevenTargets(total int64, k int) []int64 {
	targets := make([]int64, k)
	var shares, sum int64
	for i := range targets {
		shares += int64(1 + i%3)
	}
	for i := range targets {
		targets[i] = total * int64(1+i%3) / shares
		sum += targets[i]
	}
	targets[0] += total - sum
	return targets
}

// digestOptions are the option sets the digests cover: both matchings
// at the defaults, the grouping step's tighter imbalance, and the
// SCOTCHP and KAFFPAP personalities of internal/partitioners.
var digestOptions = []struct {
	name string
	opt  Options
}{
	{"hem", Options{Matching: HeavyEdge}},
	{"rem", Options{Matching: RandomEdge}},
	{"group", Options{Imbalance: 0.02}},
	{"scotch", Options{Matching: RandomEdge, InitRuns: 2, FMPasses: 1}},
	{"kaffpa", Options{Matching: HeavyEdge, InitRuns: 6, FMPasses: 3, MaxNegMoves: 200}},
}

// TestPartitionDigests pins the part vectors PartitionTargets returns
// over every digest graph, k in {2, 7, 64} with uneven targets, and
// every digest option set, each run on one and two workers. The solve
// digests of the root package reach the partitioner only through the
// grouping of their engine fixtures; these fence it directly. A change
// that moves one changes partitioning bytes: say so and record the new
// digests with the reason.
func TestPartitionDigests(t *testing.T) {
	want := map[string]string{
		"nilEW/k2/group":    "59e57dd66231f5c5",
		"nilEW/k2/hem":      "0013038ffc440435",
		"nilEW/k2/kaffpa":   "0013038ffc440435",
		"nilEW/k2/rem":      "8fefcb06ce6ff745",
		"nilEW/k2/scotch":   "64fac08260410965",
		"nilEW/k64/group":   "879d4dc5a396cd25",
		"nilEW/k64/hem":     "2aa59790d9f3b7cd",
		"nilEW/k64/kaffpa":  "eb04642bda7cde0d",
		"nilEW/k64/rem":     "314611eeab7aced3",
		"nilEW/k64/scotch":  "633edb7e994cac5c",
		"nilEW/k7/group":    "3d3fdc714422fc07",
		"nilEW/k7/hem":      "68f20f625c3b8332",
		"nilEW/k7/kaffpa":   "f6b16da2e3c1a551",
		"nilEW/k7/rem":      "b48595dfb5a25af4",
		"nilEW/k7/scotch":   "b48595dfb5a25af4",
		"rc150/k2/group":    "927295e4b76f1315",
		"rc150/k2/hem":      "ece738c1b74fe104",
		"rc150/k2/kaffpa":   "14f886ae285239b4",
		"rc150/k2/rem":      "844db37586b1adb4",
		"rc150/k2/scotch":   "da4d308e8e7117d4",
		"rc150/k64/group":   "5472e62a25b0ba00",
		"rc150/k64/hem":     "a83788e331c38bd1",
		"rc150/k64/kaffpa":  "3b9c9aef26a1f611",
		"rc150/k64/rem":     "0b95caed2115f8a1",
		"rc150/k64/scotch":  "9a88697eba3c21a1",
		"rc150/k7/group":    "e37e3c73f0a84605",
		"rc150/k7/hem":      "b7003e836965ea85",
		"rc150/k7/kaffpa":   "a3c75866f967af65",
		"rc150/k7/rem":      "27a9e6301245dcc5",
		"rc150/k7/scotch":   "129778b3a9cea5b5",
		"rc2000/k2/group":   "3d434aaa2e8ec9e4",
		"rc2000/k2/hem":     "aa816ec4613c5514",
		"rc2000/k2/kaffpa":  "332a461480966fa4",
		"rc2000/k2/rem":     "6aeeac42989bdd44",
		"rc2000/k2/scotch":  "e4e022f24b977ec4",
		"rc2000/k64/group":  "a12db7663a6f0ac5",
		"rc2000/k64/hem":    "425a54e5b6e09385",
		"rc2000/k64/kaffpa": "d190b974ba965c37",
		"rc2000/k64/rem":    "63027149830c8877",
		"rc2000/k64/scotch": "cc1ecf9ebc627b8c",
		"rc2000/k7/group":   "5c7abd765ec4f5c0",
		"rc2000/k7/hem":     "796d5e2e10a5e3d2",
		"rc2000/k7/kaffpa":  "2186d428bc30b932",
		"rc2000/k7/rem":     "17df2d529ef9fc82",
		"rc2000/k7/scotch":  "96f461a5d0387f72",
		"rc600/k2/group":    "a7f8b0eb997d1185",
		"rc600/k2/hem":      "080833f84b6c5025",
		"rc600/k2/kaffpa":   "32967e4d728c4c85",
		"rc600/k2/rem":      "306326ff4f677825",
		"rc600/k2/scotch":   "57eb82bcb5d10995",
		"rc600/k64/group":   "f053f81756ca5560",
		"rc600/k64/hem":     "185b13c76d27ef88",
		"rc600/k64/kaffpa":  "097322eea13e9668",
		"rc600/k64/rem":     "b79a0603453fb655",
		"rc600/k64/scotch":  "ceadc5a626af1454",
		"rc600/k7/group":    "e66babc3187cfba7",
		"rc600/k7/hem":      "0a4a6e457c1ed742",
		"rc600/k7/kaffpa":   "1ebb236cd63b5907",
		"rc600/k7/rem":      "ceffad9247541dc0",
		"rc600/k7/scotch":   "b95ee16982c8f035",
		"split/k2/group":    "56bceb974de67795",
		"split/k2/hem":      "19ee3ee65958ce75",
		"split/k2/kaffpa":   "46cafed0323dcf64",
		"split/k2/rem":      "19ee3ee65958ce75",
		"split/k2/scotch":   "19ee3ee65958ce75",
		"split/k64/group":   "ed6c2b9618a88674",
		"split/k64/hem":     "48be0586eece3d94",
		"split/k64/kaffpa":  "d72c2f1ccbead400",
		"split/k64/rem":     "d9429e8d16324b52",
		"split/k64/scotch":  "2d448095e80de2be",
		"split/k7/group":    "4ff6fd8cf9870107",
		"split/k7/hem":      "863d3497f5423b60",
		"split/k7/kaffpa":   "ec1bf38b827fbb50",
		"split/k7/rem":      "ec54b841fccac550",
		"split/k7/scotch":   "b86c39cc1d21d790",
		"vw/k2/group":       "8097308b7b4314e4",
		"vw/k2/hem":         "50a6ff60bc3d9b35",
		"vw/k2/kaffpa":      "f4f1a7d17e7de825",
		"vw/k2/rem":         "2f4fed42d802fef5",
		"vw/k2/scotch":      "19b6d72f8c656ca5",
		"vw/k64/group":      "518efb5abae49da9",
		"vw/k64/hem":        "93ad934290807800",
		"vw/k64/kaffpa":     "4ee16d1f5a183b65",
		"vw/k64/rem":        "37b54ff552f8cd0d",
		"vw/k64/scotch":     "bbe8e2c46ac6c607",
		"vw/k7/group":       "d864d185abe735c2",
		"vw/k7/hem":         "34ec2980a5c0b697",
		"vw/k7/kaffpa":      "e3ed164544149132",
		"vw/k7/rem":         "924ac4f68e92de37",
		"vw/k7/scotch":      "a2cd4bbd485e83b2",
	}
	got := map[string]string{}
	for _, dg := range digestGraphs() {
		for _, k := range []int{2, 7, 64} {
			targets := unevenTargets(dg.g.TotalVertexWeight(), k)
			for _, do := range digestOptions {
				name := fmt.Sprintf("%s/k%d/%s", dg.name, k, do.name)
				for _, workers := range []int{1, 2} {
					opt := do.opt
					opt.Seed = int64(k)
					opt.Par = parallel.NewGroup(context.Background(), workers)
					opt.Arena = arena.New()
					part, err := PartitionTargets(dg.g, targets, opt)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", name, workers, err)
					}
					d := partDigest(part)
					if prev, ok := got[name]; ok && prev != d {
						t.Fatalf("%s: workers=%d digest %s, workers=1 %s", name, workers, d, prev)
					}
					got[name] = d
				}
				if want[name] != got[name] {
					t.Errorf("%s: digest %s, want %s", name, got[name], want[name])
				}
			}
		}
	}
	if t.Failed() {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			t.Logf("%q: %q,", name, got[name])
		}
	}
}

// partDigest is the FNV-1a 64 digest of a part vector's little-endian
// int32 bytes.
func partDigest(part []int32) string {
	h := fnv.New64a()
	var b [4]byte
	for _, p := range part {
		binary.LittleEndian.PutUint32(b[:], uint32(p))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
