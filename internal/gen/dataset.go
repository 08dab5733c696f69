package gen

import (
	"fmt"
	"strings"

	"repro/internal/matrix"
)

// Class identifies one of the nine matrix classes of the dataset
// (§IV: "25 matrices ... belonging to 9 different classes").
type Class string

// The nine classes.
const (
	ClassCage    Class = "dna-electrophoresis" // cage15 analogue
	ClassRGG     Class = "random-geometric"    // rgg_n_2_23_s0 analogue
	ClassMesh2D  Class = "2d-mesh"
	ClassMesh3D  Class = "3d-mesh"
	ClassSocial  Class = "social-network"
	ClassBanded  Class = "structural"
	ClassCircuit Class = "circuit"
	ClassWeb     Class = "web-link"
	ClassOpt     Class = "optimization"
)

// Spec names one dataset matrix and how to generate it. Sizes are
// expressed at three tiers so tests, default runs and paper-scale
// runs can share the registry.
type Spec struct {
	Name  string
	Class Class
	gen   func(tier Tier) *matrix.CSR
}

// Tier selects the dataset scale.
type Tier int

// Dataset scales.
const (
	// Tiny is for unit tests and quick benchmarks (1-5k rows).
	Tiny Tier = iota
	// Small is the default experiment scale (15-70k rows); the full
	// pipeline over all 25 matrices runs in minutes.
	Small
	// Large approaches the paper's scale where feasible (up to ~0.3M
	// rows) and is selected by the -paper flag of the cmds.
	Large
)

// ParseTier resolves a tier by name: tiny, small or large, in any
// case. Any other name is an error, never a silent default.
func ParseTier(name string) (Tier, error) {
	switch strings.ToLower(name) {
	case "tiny":
		return Tiny, nil
	case "small":
		return Small, nil
	case "large":
		return Large, nil
	}
	return 0, fmt.Errorf("unknown tier %q (want tiny, small or large)", name)
}

func pick[T any](t Tier, tiny, small, large T) T {
	switch t {
	case Tiny:
		return tiny
	case Small:
		return small
	default:
		return large
	}
}

// Generate builds the matrix at the given tier.
func (s Spec) Generate(t Tier) *matrix.CSR { return s.gen(t) }

// Cagelike is the name of the cage15 stand-in, used by the
// communication-only and SpMV experiments (Figures 4a, 5, Table I).
const Cagelike = "cagelike"

// RGGName is the name of the rgg_n_2_23_s0 stand-in (Figure 4b, Table I).
const RGGName = "rgg"

// Dataset returns the 25-matrix registry. Generation is deterministic:
// every Spec embeds its own seed.
func Dataset() []Spec {
	specs := []Spec{
		// DNA electrophoresis (cage family): 3 sizes.
		{Cagelike, ClassCage, func(t Tier) *matrix.CSR { return DeBruijn(4, pick(t, 6, 8, 9)) }},
		{"cagelike-mid", ClassCage, func(t Tier) *matrix.CSR { return DeBruijn(4, pick(t, 5, 7, 8)) }},
		{"cagelike-small", ClassCage, func(t Tier) *matrix.CSR { return DeBruijn(2, pick(t, 11, 14, 16)) }},
		// Random geometric: 3 sizes.
		{RGGName, ClassRGG, func(t Tier) *matrix.CSR { return RGG(pick(t, 4096, 131072, 262144), 1.6, 101) }},
		{"rgg-mid", ClassRGG, func(t Tier) *matrix.CSR { return RGG(pick(t, 2048, 65536, 131072), 1.6, 102) }},
		{"rgg-small", ClassRGG, func(t Tier) *matrix.CSR { return RGG(pick(t, 1024, 32768, 65536), 1.8, 103) }},
		// 2D meshes.
		{"mesh2d-a", ClassMesh2D, func(t Tier) *matrix.CSR { return Mesh2D(pick(t, 48, 224, 400), pick(t, 48, 224, 400), 5) }},
		{"mesh2d-b", ClassMesh2D, func(t Tier) *matrix.CSR { return Mesh2D(pick(t, 64, 256, 512), pick(t, 32, 128, 256), 9) }},
		{"mesh2d-c", ClassMesh2D, func(t Tier) *matrix.CSR { return Mesh2D(pick(t, 96, 512, 1024), pick(t, 24, 64, 128), 5) }},
		// 3D meshes.
		{"mesh3d-a", ClassMesh3D, func(t Tier) *matrix.CSR { return Mesh3D(pick(t, 14, 32, 48), pick(t, 14, 32, 48), pick(t, 14, 32, 48)) }},
		{"mesh3d-b", ClassMesh3D, func(t Tier) *matrix.CSR { return Mesh3D(pick(t, 20, 64, 96), pick(t, 12, 24, 40), pick(t, 12, 24, 40)) }},
		{"mesh3d-c", ClassMesh3D, func(t Tier) *matrix.CSR { return Mesh3D(pick(t, 32, 128, 192), pick(t, 8, 16, 24), pick(t, 8, 16, 24)) }},
		// Social networks (R-MAT).
		{"social-a", ClassSocial, func(t Tier) *matrix.CSR { return RMAT(pick(t, 11, 15, 17), 8, 201) }},
		{"social-b", ClassSocial, func(t Tier) *matrix.CSR { return RMAT(pick(t, 10, 14, 16), 12, 202) }},
		{"social-c", ClassSocial, func(t Tier) *matrix.CSR { return RMAT(pick(t, 12, 16, 18), 6, 203) }},
		// Structural (banded).
		{"struct-a", ClassBanded, func(t Tier) *matrix.CSR { return Banded(pick(t, 4000, 60000, 200000), 24, 6, 301) }},
		{"struct-b", ClassBanded, func(t Tier) *matrix.CSR { return Banded(pick(t, 3000, 40000, 120000), 64, 8, 302) }},
		{"struct-c", ClassBanded, func(t Tier) *matrix.CSR { return Banded(pick(t, 5000, 80000, 250000), 12, 4, 303) }},
		// Circuits.
		{"circuit-a", ClassCircuit, func(t Tier) *matrix.CSR { return Circuit(pick(t, 4000, 50000, 150000), 20, 401) }},
		{"circuit-b", ClassCircuit, func(t Tier) *matrix.CSR { return Circuit(pick(t, 3000, 30000, 100000), 10, 402) }},
		// Web link graphs.
		{"web-a", ClassWeb, func(t Tier) *matrix.CSR { return Web(pick(t, 4000, 50000, 150000), 6, 501) }},
		{"web-b", ClassWeb, func(t Tier) *matrix.CSR { return Web(pick(t, 3000, 40000, 120000), 9, 502) }},
		// Optimization (KKT).
		{"opt-a", ClassOpt, func(t Tier) *matrix.CSR { return KKT(pick(t, 3600, 40000, 120000), pick(t, 500, 6000, 20000), 601) }},
		{"opt-b", ClassOpt, func(t Tier) *matrix.CSR { return KKT(pick(t, 2500, 25000, 90000), pick(t, 400, 5000, 15000), 602) }},
		// Circuit-like uniform random sparse.
		{"circuit-c", ClassCircuit, func(t Tier) *matrix.CSR { return Uniform(pick(t, 4000, 50000, 150000), 5, 701) }},
	}
	return specs
}

// ByName returns the dataset spec with the given name.
func ByName(name string) (Spec, error) {
	for _, s := range Dataset() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("gen: unknown dataset matrix %q", name)
}

// Names returns all dataset matrix names in registry order.
func Names() []string {
	ds := Dataset()
	out := make([]string, len(ds))
	for i, s := range ds {
		out[i] = s.Name
	}
	return out
}
