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
// the torus (with coordinates), fat-tree and dragonfly engine fixtures,
// on 64-group torus, fat-tree and dragonfly fixtures, and on a
// mixed-capacity, mixed-speed torus allocation, plus one warm remap and
// one portfolio winner. An equivalence test only proves two paths
// agree; a change to code both paths share would pass it unnoticed.
// These digests fence such a change: a refactor must reproduce them
// unedited.
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

		// The 64-group fat-tree and dragonfly fixtures and the mixed one.
		"dragonfly64/DEF":   "70c777a5d56d4d1a854142b9",
		"dragonfly64/GEOM":  "1eefb03721db03e8bc474e2d",
		"dragonfly64/HET":   "faf43c633f33a9d5ebce626c",
		"dragonfly64/SFCM":  "e32bdea5c39daddfd57e8a40",
		"dragonfly64/SMAP":  "c2eef01bff51d96322be4550",
		"dragonfly64/TMAP":  "70c777a5d56d4d1a854142b9",
		"dragonfly64/TMAPG": "7cf6fdceb4ec28004f7bbf5b",
		"dragonfly64/UG":    "c7aa1c2466a391974aa1923c",
		"dragonfly64/UMC":   "10d9dcf50489219d2e89f346",
		"dragonfly64/UMCA":  "10d9dcf50489219d2e89f346",
		"dragonfly64/UML":   "fda2da28f63d69f5da0ec0d2",
		"dragonfly64/UMMC":  "1271c953155278276e811a89",
		"dragonfly64/UTH":   "7b36d2c43d6579c8ad1f2c0c",
		"dragonfly64/UWH":   "c8abd9637340e563dba2d50c",
		"fattree64/DEF":     "629b50fda39a133f4e6da1e8",
		"fattree64/GEOM":    "160cda2cca0e18fbe0c4fe7a",
		"fattree64/HET":     "629b50fda39a133f4e6da1e8",
		"fattree64/SFCM":    "0732ac6935653eb9cfe327e3",
		"fattree64/SMAP":    "2bff212ea79a124eb394ab69",
		"fattree64/TMAP":    "2bff212ea79a124eb394ab69",
		"fattree64/TMAPG":   "ecaab3f4436276d89406a243",
		"fattree64/UG":      "ecaab3f4436276d89406a243",
		"fattree64/UMC":     "8f5de6552abbe639765d1f11",
		"fattree64/UMCA":    "7833496c73b3e8119e7633ae",
		"fattree64/UML":     "0f842d3ed0c318493223d63a",
		"fattree64/UMMC":    "9c3168bd62d05250c6933be0",
		"fattree64/UTH":     "d7dd3060dc99635c6f19f757",
		"fattree64/UWH":     "994f9fad653e6f7e4557f802",
		"mixed/DEF":         "4d2258ff5396336d0357c232",
		"mixed/GEOM":        "28ff5c88b515b1b8850d4f2c",
		"mixed/HET":         "d052177fdb58755f449a57d8",
		"mixed/SFCM":        "a0e3a2fe3715c73445695ecf",
		"mixed/SMAP":        "345a09567ec9bd736640d2b7",
		"mixed/TMAP":        "f223dd6ebc3ef82313fe8131",
		"mixed/TMAPG":       "c381b5e12b430f5bcba08c5f",
		"mixed/UG":          "4b4cb3efbd2d539412017212",
		"mixed/UMC":         "c98d1326e64fcf36cf63b3e5",
		"mixed/UMCA":        "8588aa0e0dff43c857e63f15",
		"mixed/UML":         "c3e0fbaee8e0d3e7975baa91",
		"mixed/UMMC":        "46de6e82d6b7ce88867e6de6",
		"mixed/UTH":         "fe3cd57de212f566a1c7876b",
		"mixed/UWH":         "9fb77640dfccfc18533193b5",
	}

	got := map[string]string{}
	ctx := context.Background()
	solveAll := func(fixture string, topo Topology, a *Allocation, tasks *TaskGraph, workers int) {
		eng, err := NewEngine(topo, a)
		if err != nil {
			t.Fatalf("%s: %v", fixture, err)
		}
		for _, mp := range RegisteredMappers() {
			if strings.HasPrefix(string(mp), "TEST-") {
				continue // registered by other tests in this binary
			}
			res, err := eng.RunSolve(ctx, tasks, Solve{Mapper: mp, Seed: 1, Workers: workers})
			if err != nil {
				t.Fatalf("%s/%s: %v", fixture, mp, err)
			}
			got[fixture+"/"+string(mp)] = resultDigest(res)
		}
	}

	tg, topo, a := engineFixture(t, 128)
	solveAll("torus", topo, a, withTestCoords(t, tg), 0)

	// 64 groups: enough for UML's hierarchy to coarsen past its
	// 16-vertex floor, which the 8-group fixtures never reach.
	a64, err := SparseAllocation(topo, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	solveAll("torus64", topo, a64, withTestCoords(t, ringTaskGraph(1024, 3)), 0)

	small, _, _ := engineFixture(t, 64)
	ft, err := NewFatTree(8, 10e9, 2)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := FatTreeSparseHosts(ft, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	solveAll("fattree", ft, fa, withTestCoords(t, small), 0)

	dtg, df, da := dragonflyFixture(t)
	solveAll("dragonfly", df, da, withTestCoords(t, dtg), 0)

	// 64 groups on the fat tree and the dragonfly, two workers, on a
	// task graph dense enough that Algorithm 3's candidate scoring
	// passes congScoreWork's gate and fans out, and UML coarsens.
	dense := withTestCoords(t, ringTaskGraph(1024, 8))
	fa64, err := FatTreeSparseHosts(ft, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	solveAll("fattree64", ft, fa64, dense, 2)
	da64, err := DragonflySparseHosts(df, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	solveAll("dragonfly64", df, da64, dense, 2)

	// Mixed capacities and speeds with spare processors: capacity
	// repair and the makespan balance stage move groups and tasks for
	// every mapper that groups by partitioning.
	am, err := SparseAllocation(topo, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	am.Speeds = make([]float64, len(am.Nodes))
	for i := range am.Nodes {
		am.ProcsPerNode[i] = []int{8, 16, 24}[i%3]
		am.Speeds[i] = []float64{1, 2, 1, 4}[i%4]
	}
	solveAll("mixed", topo, am, withTestCoords(t, ringTaskGraph(960, 3)), 2)

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
