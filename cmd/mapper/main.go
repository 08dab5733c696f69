// Command mapper maps an MPI task graph onto a network allocation and
// reports the mapping metrics — the end-user tool of the library. It
// drives the topology-generic Engine, so the same invocation works on
// a torus, a mesh, a k-ary fat tree or a canonical dragonfly; the
// resident-daemon counterpart is cmd/mapd.
//
// The task graph is read from a file of whitespace-separated lines
// "src dst volume" (directed edges, 0-based task ids), or generated
// from a dataset matrix with -matrix/-partitioner.
//
// Examples:
//
//	mapper -matrix cagelike -procs 256 -algo UWH -torus 8x8x8
//	mapper -graph app.tgraph -algo UMC -torus 16x12x16
//	mapper -matrix cagelike -procs 256 -algo UWH -topology fattree -fattree-k 8
//	mapper -matrix cagelike -procs 256 -algo UMC -topology dragonfly -dragonfly-h 3
//	mapper -matrix cagelike -procs 256 -portfolio all -objective mc -torus 8x8x8
//	mapper -graph app.tgraph -portfolio UWH,UMC,UMMC -objective mc:0.7,wh:0.3
//	mapper -graph app.tgraph -algo UWH -remap '{"remove":[12],"add":[{"node":40,"procs":16}]}'
//	mapper -graph stencil.tgraph -coords stencil.xyz -algo GEOM -torus 8x8x8
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	topomap "repro"
	"repro/internal/gen"
	"repro/internal/partitioners"
	"repro/internal/service"
	"repro/internal/taskgraph"
	"repro/internal/trace"
	"repro/internal/viz"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable main: it parses args, executes the pipeline and
// returns the process exit code — non-zero on any failure, including
// unknown mapper or topology names.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mapper", flag.ContinueOnError)
	fs.SetOutput(stderr)
	graphPath := fs.String("graph", "", "task graph file (src dst volume per line)")
	matName := fs.String("matrix", "", "dataset matrix to partition instead of -graph")
	partName := fs.String("partitioner", "PATOH", "partitioner personality for -matrix")
	procs := fs.Int("procs", 256, "number of MPI processes (with -matrix)")
	algo := fs.String("algo", "UWH", "mapper: "+mapperList())
	portfolio := fs.String("portfolio", "", "race a comma-separated mapper portfolio (or 'all' for every compatible mapper) instead of -algo, selecting by -objective")
	objective := fs.String("objective", "", "objective: a metric name ("+strings.Join(topomap.ObjectiveMetricNames(), " ")+"; default wh) or weighted metric:weight terms, e.g. mc:0.7,wh:0.3; selects the -portfolio winner or scores the -remap fence")
	remapDelta := fs.String("remap", "", `after solving, remap incrementally under an allocation-delta JSON, e.g. '{"remove":[12],"add":[{"node":40,"procs":16}]}'`)
	fence := fs.Float64("fence", 0, "allowed relative objective regression of the warm -remap path before the cold fallback runs (0 = default 5%, negative disables)")
	topoKind := fs.String("topology", "torus", "network family: torus, fattree, dragonfly")
	torusSpec := fs.String("torus", "8x8x8", "torus dimensions XxYxZ (with -topology torus)")
	mesh := fs.Bool("mesh", false, "use a mesh (no wraparound) instead of a torus")
	ftK := fs.Int("fattree-k", 8, "fat-tree arity k (even; k³/4 hosts, with -topology fattree)")
	ftTaper := fs.Float64("fattree-taper", 2, "fat-tree per-level bandwidth taper (1 = full bisection)")
	dfH := fs.Int("dragonfly-h", 3, "dragonfly global links per router (with -topology dragonfly)")
	seed := fs.Int64("seed", 1, "random seed (allocation, partitioner)")
	workers := fs.Int("workers", 0, "solver parallelism: worker goroutines for this solve (0 = all CPUs, 1 = serial; the mapping is identical at any value)")
	tier := fs.String("tier", "small", "dataset tier with -matrix: tiny, small, large")
	allocFile := fs.String("allocfile", "", "read the allocation from a node-list file (node [procs] lines) instead of generating one")
	rankFile := fs.String("rankfile", "", "write a Cray-style MPICH_RANK_ORDER file realizing the mapping")
	traced := fs.Bool("trace", false, "print the solve's stage timeline: wall time, share, workers and per-stage counters (the mapping is identical with or without)")
	showViz := fs.Bool("viz", false, "render the congestion histogram, hottest links and torus slice maps")
	loadsSpec := fs.String("loads", "", "per-task compute loads as comma-separated value[xCount] terms, e.g. 8x16,1x48 (total = task count); overrides loads carried by -graph or -matrix")
	coordsFile := fs.String("coords", "", "per-task coordinate file (task x y [z] lines, one per task) attaching 2D/3D geometry to the graph; overrides coordinates carried by -graph; the geometric mappers (GEOM, SFCM) require coordinates")
	speedsSpec := fs.String("speeds", "", "per-node speed factors as comma-separated value[xCount] terms, e.g. 4x4,1x12 (a single value broadcasts; total = allocation nodes)")
	balance := fs.Bool("balance", false, "run the makespan-aware load-repair stage after mapping (automatic when -speeds is non-unit)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "mapper:", err)
		return 1
	}

	// Validate mapper, dataset and objective names before any
	// expensive work, so a typo fails in microseconds, not after a
	// matrix generation or a partitioner run.
	mapper := topomap.Mapper(strings.ToUpper(*algo))
	if *portfolio == "" && (topomap.Solve{Mapper: mapper}).Validate() != nil {
		return fail(fmt.Errorf("unknown mapper %q (want one of: %s)", *algo, mapperList()))
	}
	dataTier, err := gen.ParseTier(*tier)
	if err != nil {
		return fail(err)
	}
	partitioner := partitioners.Name(*partName)
	if !slices.Contains(partitioners.All(), partitioner) {
		return fail(fmt.Errorf("unknown partitioner %q (want one of: %v)", *partName, partitioners.All()))
	}
	obj, err := topomap.ParseObjective(*objective)
	if err != nil {
		return fail(err)
	}
	if *objective != "" && *portfolio == "" && *remapDelta == "" {
		return fail(fmt.Errorf("-objective drives -portfolio selection or the -remap fence; add -portfolio or -remap (or drop -objective)"))
	}
	var delta topomap.AllocationDelta
	if *remapDelta != "" {
		dec := json.NewDecoder(strings.NewReader(*remapDelta))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&delta); err != nil {
			return fail(fmt.Errorf("bad -remap delta: %w", err))
		}
		if delta.Empty() {
			return fail(fmt.Errorf("-remap delta changes nothing"))
		}
	}
	if obj.NeedsSim() {
		return fail(fmt.Errorf("objective %s needs a simulation spec, which the CLI does not provide; use the library or mapd portfolio API", topomap.SimSecondsMetric))
	}
	candidate := func(mp topomap.Mapper) topomap.Solve {
		return topomap.Solve{Mapper: mp, Seed: *seed, Trace: *traced, Balance: *balance}
	}
	var candidates []topomap.Solve // nil = all compatible registered mappers
	if *portfolio != "" {
		if !strings.EqualFold(*portfolio, "all") {
			for _, name := range strings.Split(*portfolio, ",") {
				candidates = append(candidates, candidate(topomap.Mapper(strings.ToUpper(strings.TrimSpace(name)))))
			}
		}
		// All CLI candidates share -seed, so a repeated mapper is a
		// duplicate (mapper, seed) the library rejects.
		if err := (topomap.PortfolioRequest{Candidates: candidates, Objective: obj}).Validate(); err != nil {
			return fail(fmt.Errorf("-portfolio %s: %w (mappers: %s)", *portfolio, err, mapperList()))
		}
	}

	net, err := buildTopology(*topoKind, *torusSpec, *mesh, *ftK, *ftTaper, *dfH)
	if err != nil {
		return fail(err)
	}

	var tg *topomap.TaskGraph
	switch {
	case *matName != "":
		spec, err := gen.ByName(*matName)
		if err != nil {
			return fail(err)
		}
		m := spec.Generate(dataTier)
		part, err := partitioners.Run(partitioner, m, *procs, *seed)
		if err != nil {
			return fail(err)
		}
		tg, err = taskgraph.Build(m, part, *procs)
		if err != nil {
			return fail(err)
		}
	case *graphPath != "":
		f, err := os.Open(*graphPath)
		if err != nil {
			return fail(err)
		}
		tg, err = topomap.ReadTaskGraph(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
	default:
		return fail(fmt.Errorf("need -graph or -matrix"))
	}
	if *loadsSpec != "" {
		// SetLoads canonicalizes unit loads to the absent vector, as
		// every wire boundary does, so -loads 1xN is exactly a
		// homogeneous run.
		if err := setLoads(tg, *loadsSpec); err != nil {
			return fail(err)
		}
	}
	if *coordsFile != "" {
		f, err := os.Open(*coordsFile)
		if err != nil {
			return fail(err)
		}
		dim, coords, err := parseCoords(f, tg.G.N())
		f.Close()
		if err != nil {
			return fail(err)
		}
		if err := tg.SetCoords(dim, coords); err != nil {
			return fail(err)
		}
	}

	var a *topomap.Allocation
	if *allocFile != "" {
		f, err := os.Open(*allocFile)
		if err != nil {
			return fail(err)
		}
		a, err = topomap.ReadNodeList(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
		for _, n := range a.Nodes {
			if int(n) >= net.Hosts {
				return fail(fmt.Errorf("allocfile node %d outside the %d placement-eligible nodes of the %s", n, net.Hosts, net.Label))
			}
		}
	} else {
		nodes := (tg.K + 15) / 16
		a, err = net.SparseAlloc(nodes, *seed)
		if err != nil {
			return fail(err)
		}
	}
	if *speedsSpec != "" {
		speeds, err := parseSpeeds(*speedsSpec)
		if err != nil {
			return fail(err)
		}
		if len(speeds) == 1 && a.NumNodes() > 1 {
			one := speeds[0]
			speeds = make([]float64, a.NumNodes())
			for i := range speeds {
				speeds[i] = one
			}
		}
		if len(speeds) != a.NumNodes() {
			return fail(fmt.Errorf("-speeds lists %d nodes, the allocation has %d", len(speeds), a.NumNodes()))
		}
		a.Speeds = speeds
		a.CanonicalizeSpeeds()
	}

	eng, err := topomap.NewEngine(net.Topo, a)
	if err != nil {
		return fail(err)
	}
	var res *topomap.MapResult
	if *portfolio != "" {
		if len(candidates) == 0 && *traced {
			// "all" normally expands inside RunPortfolio; expand here so
			// the trace request reaches every candidate (the winner's
			// timeline is the one printed).
			for _, mp := range eng.CompatibleMappersFor(tg) {
				candidates = append(candidates, candidate(mp))
			}
		}
		pres, err := eng.RunPortfolio(context.Background(), topomap.PortfolioRequest{
			Tasks:      tg,
			Candidates: candidates,
			Seed:       *seed,
			Objective:  obj,
			Workers:    *workers,
		})
		if err != nil {
			return fail(err)
		}
		res = pres.Best
		fmt.Fprintf(stdout, "portfolio: %d candidates, objective %s\n", len(pres.Leaderboard), obj)
		for rank, entry := range pres.Leaderboard {
			if entry.Skipped {
				fmt.Fprintf(stdout, "  #%d %s seed %d: skipped (deadline)\n", rank+1, entry.Solve.Mapper, entry.Solve.Seed)
				continue
			}
			fmt.Fprintf(stdout, "  #%d %s seed %d: score %.6g\n", rank+1, entry.Solve.Mapper, entry.Solve.Seed, entry.Score)
		}
		fmt.Fprintf(stdout, "winner: %s\n", res.Mapper)
		mapper = res.Mapper
	} else {
		res, err = eng.RunSolve(context.Background(), tg, topomap.Solve{Mapper: mapper, Seed: *seed,
			Workers: *workers, Trace: *traced, Balance: *balance})
		if err != nil {
			return fail(err)
		}
	}
	if *remapDelta != "" {
		rres, err := eng.RunRemap(context.Background(), tg, res, delta, topomap.RemapSpec{
			Solve:          topomap.Solve{Seed: *seed, Workers: *workers, Trace: *traced, Balance: *balance},
			Objective:      obj,
			FenceThreshold: *fence,
		})
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "remap: migrated %d tasks, reused %d/%d route pairs\n",
			rres.MigratedTasks, rres.PairsReused, rres.PairsTotal)
		switch {
		case rres.FenceTripped && !rres.Warm:
			fmt.Fprintf(stdout, "remap: fence tripped (prev %.6g, warm %.6g); cold fallback won at %.6g\n",
				rres.PrevScore, rres.WarmScore, rres.ColdScore)
		case rres.FenceTripped:
			fmt.Fprintf(stdout, "remap: fence tripped (prev %.6g, warm %.6g); warm still beat the cold fallback (%.6g)\n",
				rres.PrevScore, rres.WarmScore, rres.ColdScore)
		default:
			fmt.Fprintf(stdout, "remap: warm result kept (prev %.6g, warm %.6g)\n", rres.PrevScore, rres.WarmScore)
		}
		// Downstream output — metrics, rankfile, viz — describes the
		// post-delta mapping on the post-delta allocation.
		res, a = rres.Result, rres.Allocation
	}
	if *rankFile != "" {
		f, err := os.Create(*rankFile)
		if err != nil {
			return fail(err)
		}
		err = topomap.WriteRankOrder(f, res.Placement(), a)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote rank order to %s\n", *rankFile)
	}
	m := res.Metrics
	fmt.Fprintf(stdout, "tasks: %d   nodes: %d   network: %s\n", tg.K, a.NumNodes(), net.Label)
	fmt.Fprintf(stdout, "mapper: %s\n", mapper)
	fmt.Fprintf(stdout, "TH  = %d\n", m.TH)
	fmt.Fprintf(stdout, "WH  = %d\n", m.WH)
	fmt.Fprintf(stdout, "MMC = %d\n", m.MMC)
	fmt.Fprintf(stdout, "MC  = %.6g\n", m.MC)
	fmt.Fprintf(stdout, "AMC = %.4f\n", m.AMC)
	fmt.Fprintf(stdout, "AC  = %.6g\n", m.AC)
	fmt.Fprintf(stdout, "used links = %d\n", m.UsedLinks)
	if tg.G.VW != nil || !a.UnitSpeeds() || *balance {
		fmt.Fprintf(stdout, "makespan = %.6g\n", m.Makespan)
		fmt.Fprintf(stdout, "load imbalance = %.4f\n", m.LoadImbalance)
	}
	if *traced && res.Trace != nil {
		fmt.Fprintf(stdout, "stages (%.3fms total):\n", res.Trace.TotalMS())
		fmt.Fprint(stdout, trace.Format(res.Trace.Stages(), res.Trace.TotalMS()))
	}
	for g, n := range res.NodeOf {
		fmt.Fprintf(stdout, "group %d -> node %d\n", g, n)
		if g > 20 {
			fmt.Fprintf(stdout, "... (%d more)\n", len(res.NodeOf)-g-1)
			break
		}
	}
	if *showViz {
		fmt.Fprintln(stdout)
		if err := viz.CongestionHistogram(stdout, tg.G, net.Topo, res.Placement(), 10); err != nil {
			return fail(err)
		}
		if t, ok := net.Topo.(*topomap.Torus); ok {
			fmt.Fprintln(stdout)
			if err := viz.FprintTopLinks(stdout, tg.G, t, res.Placement(), 10); err != nil {
				return fail(err)
			}
			fmt.Fprintln(stdout)
			for z := 0; z < t.Dims()[2]; z++ {
				if err := viz.SliceMap(stdout, t, a, res.Coarse, res.NodeOf, z); err != nil {
					return fail(err)
				}
			}
		}
	}
	return 0
}

// buildTopology builds the network from the CLI flags — one
// construction path shared with cmd/mapd.
func buildTopology(kind, torusSpec string, mesh bool, ftK int, ftTaper float64, dfH int) (*service.Network, error) {
	spec := service.TopologySpec{Kind: strings.ToLower(kind)}
	switch spec.Kind {
	case "torus":
		dims, err := parseDims(torusSpec)
		if err != nil {
			return nil, err
		}
		spec.Dims = dims[:]
		if mesh {
			spec.Kind = "mesh"
		}
	case "fattree":
		spec.K = ftK
		spec.Taper = ftTaper
	case "dragonfly":
		spec.H = dfH
	}
	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	return spec.Build()
}

// mapperList renders the registered mapper names for the -algo usage
// string — derived from the registry, never hand-maintained.
func mapperList() string {
	names := topomap.RegisteredMappers()
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = string(n)
	}
	return strings.Join(out, " ")
}

// expandRunList parses comma-separated "value" or "valuexCount" terms
// (e.g. "8x16,1x48") into the expanded value list.
func expandRunList(s, flagName string) ([]string, error) {
	var out []string
	for _, term := range strings.Split(s, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			return nil, fmt.Errorf("%s: empty term", flagName)
		}
		val, count := term, 1
		if i := strings.LastIndexByte(term, 'x'); i >= 0 {
			c, err := strconv.Atoi(term[i+1:])
			if err != nil || c < 1 {
				return nil, fmt.Errorf("%s: bad repeat count in term %q", flagName, term)
			}
			val, count = term[:i], c
		}
		for j := 0; j < count; j++ {
			out = append(out, val)
		}
	}
	return out, nil
}

// setLoads expands a -loads run list into the per-task load vector
// and sets it on tg.
func setLoads(tg *topomap.TaskGraph, s string) error {
	vals, err := expandRunList(s, "-loads")
	if err != nil {
		return err
	}
	loads := make([]int64, len(vals))
	for i, v := range vals {
		if loads[i], err = strconv.ParseInt(v, 10, 64); err != nil {
			return fmt.Errorf("-loads: bad load %q (want an integer)", v)
		}
	}
	if err := tg.SetLoads(loads); err != nil {
		return fmt.Errorf("-loads: %w", err)
	}
	return nil
}

// parseCoords reads a -coords file: one "task x y [z]" line per task,
// every task exactly once, the first line fixing the dimensionality.
// Returns the dim and the task-major flattened coordinate vector.
func parseCoords(r io.Reader, n int) (int, []float64, error) {
	sc := bufio.NewScanner(r)
	dim := 0
	var coords []float64
	seen := make([]bool, n)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) != 3 && len(fields) != 4 {
			return 0, nil, fmt.Errorf("-coords line %d: want 'task x y [z]', got %d fields", line, len(fields))
		}
		if dim == 0 {
			dim = len(fields) - 1
			coords = make([]float64, n*dim)
		} else if len(fields)-1 != dim {
			return 0, nil, fmt.Errorf("-coords line %d: %dD point in a %dD file", line, len(fields)-1, dim)
		}
		t, err := strconv.Atoi(fields[0])
		if err != nil || t < 0 || t >= n {
			return 0, nil, fmt.Errorf("-coords line %d: bad task id %q (graph has %d tasks)", line, fields[0], n)
		}
		if seen[t] {
			return 0, nil, fmt.Errorf("-coords line %d: task %d listed twice", line, t)
		}
		seen[t] = true
		for d := 0; d < dim; d++ {
			c, err := strconv.ParseFloat(fields[d+1], 64)
			if err != nil {
				return 0, nil, fmt.Errorf("-coords line %d: bad coordinate %q", line, fields[d+1])
			}
			coords[t*dim+d] = c
		}
	}
	if err := sc.Err(); err != nil {
		return 0, nil, err
	}
	if dim == 0 {
		return 0, nil, fmt.Errorf("-coords: no coordinate lines")
	}
	for t, ok := range seen {
		if !ok {
			return 0, nil, fmt.Errorf("-coords: task %d has no coordinates", t)
		}
	}
	return dim, coords, nil
}

// parseSpeeds expands a -speeds run list into the per-node speed
// vector.
func parseSpeeds(s string) ([]float64, error) {
	vals, err := expandRunList(s, "-speeds")
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(vals))
	for i, v := range vals {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 {
			return nil, fmt.Errorf("-speeds: bad speed %q (want a positive number)", v)
		}
		out[i] = f
	}
	return out, nil
}

func parseDims(s string) ([3]int, error) {
	var dims [3]int
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) != 3 {
		return dims, fmt.Errorf("mapper: torus spec %q must be XxYxZ", s)
	}
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 1 {
			return dims, fmt.Errorf("mapper: bad torus dimension %q", p)
		}
		dims[i] = v
	}
	return dims, nil
}
