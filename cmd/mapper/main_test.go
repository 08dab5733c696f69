package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	topomap "repro"
	"repro/internal/gen"
	"repro/internal/partitioners"
	"repro/internal/taskgraph"
)

func TestParseDims(t *testing.T) {
	dims, err := parseDims("8x8x8")
	if err != nil {
		t.Fatal(err)
	}
	if dims != [3]int{8, 8, 8} {
		t.Fatalf("dims = %v", dims)
	}
	dims, err = parseDims("16X12x24")
	if err != nil {
		t.Fatal(err)
	}
	if dims != [3]int{16, 12, 24} {
		t.Fatalf("dims = %v", dims)
	}
	for _, bad := range []string{"8x8", "axbxc", "8x8x0", "", "8x8x8x8"} {
		if _, err := parseDims(bad); err == nil {
			t.Fatalf("parseDims(%q): expected error", bad)
		}
	}
}

func TestBuildTopologyFamilies(t *testing.T) {
	cases := []struct {
		kind  string
		hosts int
	}{
		{"torus", 6 * 6 * 6},
		{"fattree", 8 * 8 * 8 / 4},
		{"dragonfly", 19 * 6 * 3}, // h=3: (2h²+1) groups × 2h routers × h hosts
	}
	for _, cs := range cases {
		net, err := buildTopology(cs.kind, "6x6x6", false, 8, 2, 3)
		if err != nil {
			t.Fatalf("%s: %v", cs.kind, err)
		}
		if net.Hosts != cs.hosts {
			t.Fatalf("%s: hosts = %d, want %d", cs.kind, net.Hosts, cs.hosts)
		}
		a, err := net.SparseAlloc(4, 1)
		if err != nil {
			t.Fatalf("%s: alloc: %v", cs.kind, err)
		}
		if a.NumNodes() != 4 {
			t.Fatalf("%s: alloc has %d nodes", cs.kind, a.NumNodes())
		}
		if _, err := topomap.NewEngine(net.Topo, a); err != nil {
			t.Fatalf("%s: NewEngine: %v", cs.kind, err)
		}
	}
	if _, err := buildTopology("hypercube", "6x6x6", false, 8, 2, 3); err == nil {
		t.Fatal("expected error for unknown topology kind")
	}
}

// TestEndToEndPerTopology drives the full mapper pipeline on every
// topology family the CLI exposes — the -topology satellite's
// acceptance: one Solve path, three networks.
func TestEndToEndPerTopology(t *testing.T) {
	spec, err := gen.ByName(gen.Cagelike)
	if err != nil {
		t.Fatal(err)
	}
	m := spec.Generate(gen.Tiny)
	const procs = 64
	part, err := partitioners.Run(partitioners.PATOHP, m, procs, 1)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := taskgraph.Build(m, part, procs)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"torus", "fattree", "dragonfly"} {
		net, err := buildTopology(kind, "6x6x6", false, 8, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		a, err := net.SparseAlloc((procs+15)/16, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		eng, err := topomap.NewEngine(net.Topo, a)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		res, err := eng.RunSolve(context.Background(), tg, topomap.Solve{Mapper: topomap.UWH, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if res.Metrics.WH <= 0 {
			t.Fatalf("%s: degenerate WH %d", kind, res.Metrics.WH)
		}
	}
}

// TestRunExitCodes pins the CLI contract: bad inputs — unknown
// mapper, topology, tier or partitioner names above all — exit
// non-zero with a diagnostic on stderr, and a good run exits 0. The
// unknown-name cases must fail fast, before the matrix/partitioner
// pipeline runs.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantErr  string
	}{
		{
			name:     "unknown mapper",
			args:     []string{"-matrix", "cagelike", "-tier", "tiny", "-procs", "64", "-algo", "NOPE"},
			wantCode: 1,
			wantErr:  "unknown mapper",
		},
		{
			name:     "unknown topology",
			args:     []string{"-matrix", "cagelike", "-tier", "tiny", "-procs", "64", "-topology", "hypercube"},
			wantCode: 1,
			wantErr:  "unknown kind",
		},
		{
			name:     "unknown tier",
			args:     []string{"-matrix", "cagelike", "-tier", "tinny", "-procs", "64"},
			wantCode: 1,
			wantErr:  "unknown tier",
		},
		{
			name:     "unknown partitioner",
			args:     []string{"-matrix", "cagelike", "-tier", "tiny", "-procs", "64", "-partitioner", "ZOLTAN"},
			wantCode: 1,
			wantErr:  "unknown partitioner",
		},
		{
			name:     "missing input",
			args:     []string{"-algo", "UWH"},
			wantCode: 1,
			wantErr:  "need -graph or -matrix",
		},
		{
			name:     "unknown matrix",
			args:     []string{"-matrix", "no-such-dataset", "-tier", "tiny", "-procs", "64"},
			wantCode: 1,
		},
		{
			name:     "bad flag",
			args:     []string{"-no-such-flag"},
			wantCode: 2,
		},
		{
			name:     "good run",
			args:     []string{"-matrix", "cagelike", "-tier", "tiny", "-procs", "64", "-algo", "uwh", "-torus", "6x6x6"},
			wantCode: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := run(tc.args, &stdout, &stderr)
			if code != tc.wantCode {
				t.Fatalf("exit code = %d, want %d (stderr: %s)", code, tc.wantCode, stderr.String())
			}
			if tc.wantErr != "" && !strings.Contains(stderr.String(), tc.wantErr) {
				t.Fatalf("stderr %q does not mention %q", stderr.String(), tc.wantErr)
			}
			if tc.wantCode == 0 && !strings.Contains(stdout.String(), "WH  =") {
				t.Fatalf("good run printed no metrics:\n%s", stdout.String())
			}
		})
	}
}

func TestMapperListDerivedFromRegistry(t *testing.T) {
	list := mapperList()
	for _, mp := range topomap.Mappers() {
		if !strings.Contains(list, string(mp)) {
			t.Fatalf("mapper list %q missing %s", list, mp)
		}
	}
}

// TestRunRemapFlag drives the -remap surface: a node-swap delta
// (kill one allocated node, hand over a fresh one) remaps the solved
// mapping incrementally, printing the migration and route-pair-reuse
// accounting before the post-delta metrics, and -rankfile writes the
// post-delta rank order; malformed and empty deltas fail fast.
func TestRunRemapFlag(t *testing.T) {
	base := []string{"-matrix", "cagelike", "-tier", "tiny", "-procs", "64", "-algo", "uwh", "-torus", "6x6x6"}
	var stdout, stderr strings.Builder
	if code := run(base, &stdout, &stderr); code != 0 {
		t.Fatalf("base run exit %d (stderr: %s)", code, stderr.String())
	}
	// A -matrix graph carries the partition's non-unit loads, so the
	// report includes the makespan lines.
	if !strings.Contains(stdout.String(), "makespan = ") {
		t.Fatalf("-matrix run (non-unit loads) did not report makespan:\n%s", stdout.String())
	}
	// Recover the allocated node set from the mapping lines, pick one
	// to kill and one free node to hand over in its place.
	allocated := map[int]bool{}
	for _, line := range strings.Split(stdout.String(), "\n") {
		var g, n int
		if _, err := fmt.Sscanf(line, "group %d -> node %d", &g, &n); err == nil {
			allocated[n] = true
		}
	}
	if len(allocated) == 0 {
		t.Fatalf("no mapping lines in base output:\n%s", stdout.String())
	}
	dead := -1
	for n := range allocated {
		if dead < 0 || n < dead {
			dead = n
		}
	}
	fresh := 0
	for allocated[fresh] {
		fresh++
	}
	delta := fmt.Sprintf(`{"remove":[%d],"add":[{"node":%d,"procs":16}]}`, dead, fresh)

	stdout.Reset()
	stderr.Reset()
	rf := filepath.Join(t.TempDir(), "rank")
	if code := run(append([]string{"-remap", delta, "-objective", "wh", "-rankfile", rf}, base...), &stdout, &stderr); code != 0 {
		t.Fatalf("remap run exit %d (stderr: %s)", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"remap: migrated", "route pairs", "wrote rank order to " + rf, "WH  ="} {
		if !strings.Contains(out, want) {
			t.Fatalf("remap output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, fmt.Sprintf("node %d", fresh)) {
		t.Fatalf("post-delta mapping never uses the added node %d:\n%s", fresh, out)
	}
	f, err := os.Open(rf)
	if err != nil {
		t.Fatal(err)
	}
	order, err := topomap.ReadRankOrder(f)
	f.Close()
	if err != nil {
		t.Fatalf("post-remap rankfile: %v", err)
	}
	if len(order) != 64 {
		t.Fatalf("post-remap rankfile orders %d ranks, want 64", len(order))
	}

	// Fail-fast validation.
	for _, tc := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-remap", "{bad"}, "bad -remap delta"},
		{[]string{"-remap", "{}"}, "changes nothing"},
		{[]string{"-remap", `{"remove":[999]}`}, "not allocated"},
	} {
		stdout.Reset()
		stderr.Reset()
		if code := run(append(tc.args, base...), &stdout, &stderr); code != 1 {
			t.Fatalf("%v: exit %d, want 1", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.wantErr) {
			t.Fatalf("%v: stderr %q does not mention %q", tc.args, stderr.String(), tc.wantErr)
		}
	}

	// Identical output at any -workers setting, like every other path.
	outputs := make([]string, 0, 2)
	for _, w := range []string{"1", "4"} {
		stdout.Reset()
		stderr.Reset()
		args := append([]string{"-workers", w, "-remap", delta}, base...)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("-workers %s: exit %d (stderr: %s)", w, code, stderr.String())
		}
		outputs = append(outputs, stdout.String())
	}
	if outputs[0] != outputs[1] {
		t.Fatalf("remap output diverged between -workers settings:\n%s\nvs\n%s", outputs[0], outputs[1])
	}
}

// TestRunWorkersFlag: -workers changes the solve's parallelism only;
// the printed metrics and mapping lines must be identical at any
// worker count.
func TestRunWorkersFlag(t *testing.T) {
	base := []string{"-matrix", "cagelike", "-tier", "tiny", "-procs", "64", "-algo", "umc", "-torus", "6x6x6"}
	outputs := make([]string, 0, 3)
	for _, w := range []string{"1", "4", "0"} {
		var stdout, stderr strings.Builder
		if code := run(append([]string{"-workers", w}, base...), &stdout, &stderr); code != 0 {
			t.Fatalf("-workers %s: exit %d (stderr: %s)", w, code, stderr.String())
		}
		outputs = append(outputs, stdout.String())
	}
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Fatalf("output diverged between -workers settings:\n%s\nvs\n%s", outputs[0], outputs[i])
		}
	}
}

// TestRunPortfolioFlag drives the -portfolio/-objective surface: a
// portfolio run prints the leaderboard and the winner's metrics, bad
// candidate and objective names fail fast, and the printed output is
// identical at any -workers setting.
func TestRunPortfolioFlag(t *testing.T) {
	base := []string{"-matrix", "cagelike", "-tier", "tiny", "-procs", "64", "-torus", "6x6x6"}
	var stdout, stderr strings.Builder
	code := run(append([]string{"-portfolio", "DEF,UG,UWH,UMC,UMMC,SMAP", "-objective", "mc"}, base...), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("portfolio run exit %d (stderr: %s)", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"portfolio: 6 candidates, objective mc", "#1 ", "winner: ", "WH  ="} {
		if !strings.Contains(out, want) {
			t.Fatalf("portfolio output missing %q:\n%s", want, out)
		}
	}

	// -portfolio all expands to every compatible registered mapper.
	stdout.Reset()
	stderr.Reset()
	if code := run(append([]string{"-portfolio", "all"}, base...), &stdout, &stderr); code != 0 {
		t.Fatalf("-portfolio all exit %d (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "winner: ") {
		t.Fatalf("-portfolio all printed no winner:\n%s", stdout.String())
	}

	// Fail-fast validation, before the matrix pipeline runs.
	for _, tc := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-portfolio", "UWH,NOPE"}, `unknown mapper "NOPE"`},
		{[]string{"-portfolio", "all", "-objective", "latency"}, "unknown objective metric"},
		{[]string{"-portfolio", "all", "-objective", "mc:bad"}, "objective weight"},
		{[]string{"-portfolio", "UWH,UWH"}, "duplicate"},
		{[]string{"-portfolio", "all", "-objective", "sim_seconds"}, "simulation spec"},
		{[]string{"-objective", "mc"}, "add -portfolio"},
	} {
		stdout.Reset()
		stderr.Reset()
		if code := run(append(tc.args, base...), &stdout, &stderr); code != 1 {
			t.Fatalf("%v: exit %d, want 1", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.wantErr) {
			t.Fatalf("%v: stderr %q does not mention %q", tc.args, stderr.String(), tc.wantErr)
		}
	}

	// Deterministic across -workers.
	outputs := make([]string, 0, 2)
	for _, w := range []string{"1", "4"} {
		stdout.Reset()
		stderr.Reset()
		args := append([]string{"-workers", w, "-portfolio", "DEF,UG,UWH,UMC", "-objective", "wh"}, base...)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("-workers %s: exit %d (stderr: %s)", w, code, stderr.String())
		}
		outputs = append(outputs, stdout.String())
	}
	if outputs[0] != outputs[1] {
		t.Fatalf("portfolio output diverged between -workers settings:\n%s\nvs\n%s", outputs[0], outputs[1])
	}
}

// TestLoadsFlagUnitRule: -loads sets its vector through
// TaskGraph.SetLoads, as every wire entry does (internal/service's
// TestUnitLoadsRule): all-ones loads leave G.VW nil, any other vector
// is kept whole, and a negative load is refused.
func TestLoadsFlagUnitRule(t *testing.T) {
	ring := func() *topomap.TaskGraph {
		tg, err := topomap.ReadTaskGraph(strings.NewReader("0 1 5\n1 2 5\n2 3 5\n3 0 5\n"))
		if err != nil {
			t.Fatal(err)
		}
		return tg
	}
	unit := ring()
	if err := setLoads(unit, "1x4"); err != nil || unit.G.VW != nil {
		t.Fatalf("-loads 1x4: err = %v, VW = %v; want no loads", err, unit.G.VW)
	}
	mixed := ring()
	if err := setLoads(mixed, "1,4,0,2"); err != nil || fmt.Sprint(mixed.G.VW) != "[1 4 0 2]" {
		t.Fatalf("-loads 1,4,0,2: err = %v, VW = %v", err, mixed.G.VW)
	}
	if err := setLoads(ring(), "1,-3,1,1"); err == nil || !strings.Contains(err.Error(), "negative load") {
		t.Fatalf("-loads with a negative load: err = %v, want a refusal", err)
	}
	if err := setLoads(ring(), "1x3"); err == nil {
		t.Fatal("-loads for 3 of 4 tasks accepted")
	}
}
