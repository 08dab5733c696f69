// Command genmat materializes the synthetic 25-matrix dataset as
// MatrixMarket files, so the workloads can be inspected or fed to
// external tools.
//
// Usage:
//
//	genmat -out /tmp/dataset -tier tiny
//	genmat -out /tmp/dataset -only cagelike,rgg
//	genmat -out /tmp/dataset -mlpipe 24x16 -seed 7
//	genmat -out /tmp/dataset -stencil 16x16x16
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/taskgraph"
)

func main() {
	out := flag.String("out", "dataset", "output directory")
	tier := flag.String("tier", "tiny", "size tier: tiny, small, large")
	only := flag.String("only", "", "comma-separated subset of matrix names")
	mlpipe := flag.String("mlpipe", "", "emit an inference-pipeline task graph (stages x width, e.g. 24x16) with skewed per-task loads instead of the matrix dataset")
	stencil := flag.String("stencil", "", "emit a halo-exchange stencil task graph with per-task grid coordinates (NXxNY for 2D, NXxNYxNZ for 3D, e.g. 16x16x16) instead of the matrix dataset")
	seed := flag.Int64("seed", 1, "load-jitter seed for -mlpipe")
	flag.Parse()

	if *mlpipe != "" {
		if err := writeMLPipe(*out, *mlpipe, *seed); err != nil {
			fail(err)
		}
		return
	}
	if *stencil != "" {
		if err := writeStencil(*out, *stencil); err != nil {
			fail(err)
		}
		return
	}

	t, err := gen.ParseTier(*tier)
	if err != nil {
		fail(err)
	}
	want := map[string]bool{}
	if *only != "" {
		for _, n := range strings.Split(*only, ",") {
			want[strings.TrimSpace(n)] = true
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(err)
	}
	for _, spec := range gen.Dataset() {
		if len(want) > 0 && !want[spec.Name] {
			continue
		}
		m := spec.Generate(t)
		path := filepath.Join(*out, spec.Name+".mtx")
		f, err := os.Create(path)
		if err != nil {
			fail(err)
		}
		if err := matrix.WriteMatrixMarket(f, m); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("%-16s %-22s %8d rows %10d nnz  -> %s\n",
			spec.Name, spec.Class, m.Rows, m.NNZ(), path)
	}
}

// writeMLPipe generates the stage-parallel inference-pipeline task
// graph and writes it in the text edge-list format (with "# load"
// lines) cmd/mapper -graph reads back.
func writeMLPipe(out, spec string, seed int64) error {
	parts := strings.Split(strings.ToLower(spec), "x")
	if len(parts) != 2 {
		return fmt.Errorf("-mlpipe spec %q must be STAGESxWIDTH", spec)
	}
	stages, err1 := strconv.Atoi(parts[0])
	width, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil {
		return fmt.Errorf("-mlpipe spec %q must be STAGESxWIDTH", spec)
	}
	tg, err := taskgraph.MLPipe(stages, width, seed)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(out, fmt.Sprintf("mlpipe_%dx%d.tgraph", stages, width))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tg.Encode(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("%-16s %-22s %8d tasks %10d edges -> %s\n",
		fmt.Sprintf("mlpipe_%dx%d", stages, width), "inference pipeline", tg.K, tg.G.M(), path)
	return nil
}

// stencilHaloVolume is the communication volume of each face exchange
// in a -stencil graph — one fixed halo size, so the graph is fully
// determined by its grid dimensions.
const stencilHaloVolume = 8

// writeStencil generates the structured-grid halo-exchange task graph
// and writes it in the text edge-list format; the per-task grid
// coordinates travel as "# coord" lines, so cmd/mapper -graph hands
// the geometric mappers (GEOM, SFCM) their geometry with no extra
// flag.
func writeStencil(out, spec string) error {
	parts := strings.Split(strings.ToLower(spec), "x")
	if len(parts) != 2 && len(parts) != 3 {
		return fmt.Errorf("-stencil spec %q must be NXxNY or NXxNYxNZ", spec)
	}
	dims := [3]int{1, 1, 1}
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 1 {
			return fmt.Errorf("-stencil spec %q: bad dimension %q", spec, p)
		}
		dims[i] = v
	}
	tg, err := taskgraph.Stencil(dims[0], dims[1], dims[2], stencilHaloVolume)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("stencil_%s", strings.Join(parts, "x"))
	path := filepath.Join(out, name+".tgraph")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tg.Encode(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("%-16s %-22s %8d tasks %10d edges -> %s\n",
		name, fmt.Sprintf("%dD halo exchange", tg.Dim), tg.K, tg.G.M(), path)
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "genmat:", err)
	os.Exit(1)
}
