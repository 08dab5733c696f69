package topomap

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestSolveDigests pins the bytes every built-in mapper produces on
// the torus (with coordinates), fat-tree and dragonfly engine fixtures
// and on a 64-group torus, plus one warm remap and one portfolio
// winner. The
// cached-vs-uncached golden only proves two paths agree; a change to
// code both paths share would pass it unnoticed. These digests fence
// such a change: a refactor must reproduce them unedited.
//
// Floating-point metrics are hashed by their bits, so the digests hold
// only where the compiler emits no fused multiply-add: on amd64.
func TestSolveDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are recorded on amd64; other architectures may fuse floating-point multiply-adds")
	}
	// A change that moves any of these changes output bytes: say so
	// and record the new digests with the reason.
	want := map[string]string{
		"dragonfly/DEF":   "d3212b050f34cc0bea2b85e5",
		"dragonfly/GEOM":  "cb42f9b7fc2cae85fc9bcb94",
		"dragonfly/HET":   "0d92b40d62de5880665bd8b2",
		"dragonfly/SFCM":  "2210152d50b568c8f3b9c7f7",
		"dragonfly/SMAP":  "f2de413bb5d3d22f5c418f78",
		"dragonfly/TMAP":  "d3212b050f34cc0bea2b85e5",
		"dragonfly/TMAPG": "73edb329cb89dcd5a4da2fc1",
		"dragonfly/UG":    "73edb329cb89dcd5a4da2fc1",
		"dragonfly/UMC":   "55cc6eab17d98c8bb68f8bde",
		"dragonfly/UMCA":  "55cc6eab17d98c8bb68f8bde",
		"dragonfly/UML":   "55cc6eab17d98c8bb68f8bde",
		"dragonfly/UMMC":  "55cc6eab17d98c8bb68f8bde",
		"dragonfly/UTH":   "73edb329cb89dcd5a4da2fc1",
		"dragonfly/UWH":   "55cc6eab17d98c8bb68f8bde",
		"fattree/DEF":     "5ac0d6b538984b9f6f0a0c68",
		"fattree/GEOM":    "5ac0d6b538984b9f6f0a0c68",
		"fattree/HET":     "2e24797667d818979e22c45a",
		"fattree/SFCM":    "78d0cd533682dcdd9e72819b",
		"fattree/SMAP":    "fe11d02ecfc1cfdf77167460",
		"fattree/TMAP":    "5ac0d6b538984b9f6f0a0c68",
		"fattree/TMAPG":   "5ac0d6b538984b9f6f0a0c68",
		"fattree/UG":      "b07a5bf3ac99e9ed29e4d3df",
		"fattree/UMC":     "ea71684af99e5df219fbe776",
		"fattree/UMCA":    "2e24797667d818979e22c45a",
		"fattree/UML":     "2e24797667d818979e22c45a",
		"fattree/UMMC":    "2e24797667d818979e22c45a",
		"fattree/UTH":     "b07a5bf3ac99e9ed29e4d3df",
		"fattree/UWH":     "2e24797667d818979e22c45a",
		"portfolio/UMC":   "59b1a53e5869277284d205cb",
		"remap/warm":      "e7c77b49406d24fa94109de5",
		"torus/DEF":       "df04b6c0cbe8276122201a92",
		"torus/GEOM":      "dfd04204a1f0dfdfaebe8496",
		"torus/HET":       "635b0bff3de788d1d9099e02",
		"torus/SFCM":      "fa48f9fe7f5e162a151c6fdb",
		"torus/SMAP":      "e51b8e4cc0f055241aeef57b",
		"torus/TMAP":      "df04b6c0cbe8276122201a92",
		"torus/TMAPG":     "df04b6c0cbe8276122201a92",
		"torus/UG":        "585e4a54459993de0490072f",
		"torus/UMC":       "59b1a53e5869277284d205cb",
		"torus/UMCA":      "41208ba4890c789745b8ce43",
		"torus/UML":       "726598f2a349344619186cd8",
		"torus/UMMC":      "79dfbbed10710ddf543ec068",
		"torus/UTH":       "585e4a54459993de0490072f",
		"torus/UWH":       "726598f2a349344619186cd8",
		"torus64/DEF":     "f6b8d935d10848a515576c5f",
		"torus64/GEOM":    "6695d7148e286040555859a3",
		"torus64/HET":     "5bc0318c9c4db26c5f3a79b6",
		"torus64/SFCM":    "a52482d262a9da0ae70815f0",
		"torus64/SMAP":    "c0dd7373bfeec8c557f8c79a",
		"torus64/TMAP":    "f6b8d935d10848a515576c5f",
		"torus64/TMAPG":   "65689d6af8b816095e4e653d",
		"torus64/UG":      "a4064120eba464abeb4084cf",
		"torus64/UMC":     "c4700cb8ef8046245d849253",
		"torus64/UMCA":    "4dd9e1856fc1979aea9ddbe3",
		"torus64/UML":     "29661957473e4c8d30dc7f43",
		"torus64/UMMC":    "db35f9aa7c3228f2022df935",
		"torus64/UTH":     "5f353f884176b3faa4b7bd4f",
		"torus64/UWH":     "5b5b47b09be5fc8f7a9d01b8",
	}

	got := map[string]string{}
	ctx := context.Background()
	solveAll := func(fixture string, topo Topology, a *Allocation, tasks *TaskGraph) {
		eng, err := NewEngine(topo, a)
		if err != nil {
			t.Fatalf("%s: %v", fixture, err)
		}
		for _, mp := range RegisteredMappers() {
			if strings.HasPrefix(string(mp), "TEST-") {
				continue // registered by other tests in this binary
			}
			res, err := eng.RunSolve(ctx, tasks, Solve{Mapper: mp, Seed: 1})
			if err != nil {
				t.Fatalf("%s/%s: %v", fixture, mp, err)
			}
			got[fixture+"/"+string(mp)] = resultDigest(res)
		}
	}

	tg, topo, a := engineFixture(t, 128)
	solveAll("torus", topo, a, withTestCoords(t, tg))

	// 64 groups: enough for UML's hierarchy to coarsen past its
	// 16-vertex floor, which the 8-group fixtures never reach.
	a64, err := SparseAllocation(topo, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	solveAll("torus64", topo, a64, withTestCoords(t, ringTaskGraph(1024, 3)))

	small, _, _ := engineFixture(t, 64)
	ft, err := NewFatTree(8, 10e9, 2)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := FatTreeSparseHosts(ft, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	solveAll("fattree", ft, fa, withTestCoords(t, small))

	dtg, df, da := dragonflyFixture(t)
	solveAll("dragonfly", df, da, withTestCoords(t, dtg))

	eng, rtg, prev := remapFixture(t)
	rem, err := eng.RunRemap(ctx, rtg, prev, AllocationDelta{Remove: []int32{eng.Allocation().Nodes[2]}}, RemapSpec{FenceThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	got["remap/warm"] = resultDigest(rem.Result)

	peng, ptg, cands := portfolioFixture(t)
	port, err := peng.RunPortfolio(ctx, PortfolioRequest{Tasks: ptg, Candidates: cands, Objective: MinimizeMetric("mc"), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got["portfolio/"+string(port.Best.Mapper)] = resultDigest(port.Best)

	for k, g := range got {
		if w, ok := want[k]; !ok {
			t.Errorf("%s: no recorded digest (got %q)", k, g)
		} else if g != w {
			t.Errorf("%s: digest %s, want %s", k, g, w)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: recorded digest not produced", k)
		}
	}
}

// resultDigest hashes a result's GroupOf, NodeOf and every MapMetrics
// field, floats by their IEEE-754 bits.
func resultDigest(r *MapResult) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, s := range [][]int32{r.GroupOf, r.NodeOf} {
		put(uint64(len(s)))
		for _, x := range s {
			put(uint64(x))
		}
	}
	m := reflect.ValueOf(r.Metrics)
	for i := 0; i < m.NumField(); i++ {
		switch f := m.Field(i); f.Kind() {
		case reflect.Float64:
			put(math.Float64bits(f.Float()))
		case reflect.Int, reflect.Int64:
			put(uint64(f.Int()))
		default:
			panic("resultDigest: unhashed MapMetrics field " + m.Type().Field(i).Name)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
