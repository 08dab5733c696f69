package registry

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/hetero"
	"repro/internal/routecache"
	"repro/internal/torus"
)

// The built-in mappers: the seven of the paper's figures (DEF,
// the TMAP/SMAP baselines, the four UMPA variants), then the
// extension variants the paper sketches but does not plot, the
// hetero-aware greedy construction HET, and the geometric pair
// GEOM/SFCM (coordinate-requiring, declared via Caps). All are
// topology-generic — the WH family runs on anything implementing
// torus.Topology (§III: the algorithms "can be applied to various
// topologies"), the baselines degrade their geometric node split to
// an order split when the topology has no coordinate grid, and UMCA
// requires multipath route enumeration, declared via Caps.
func init() {
	simple := func(name string, fn func(g *graph.Graph, tab *routecache.Table, ex *core.Exec) []int32) MapperSpec {
		return NewFunc(name, Caps{}, func(in Input) ([]int32, error) {
			tab, err := tableOf(in)
			if err != nil {
				return nil, err
			}
			return fn(in.Coarse, tab, in.Exec), nil
		})
	}

	MustRegister(NewFunc("DEF", Caps{BlockGrouping: true}, func(in Input) ([]int32, error) {
		return baseline.DEF(in.Coarse.N(), in.Alloc), nil
	}))
	MustRegister(NewFunc("TMAP", Caps{}, func(in Input) ([]int32, error) {
		return baseline.TMAP(in.Coarse, in.Topo, in.Alloc, in.Seed), nil
	}))
	MustRegister(NewFunc("SMAP", Caps{}, func(in Input) ([]int32, error) {
		return baseline.SMAP(in.Coarse, in.Topo, in.Alloc, in.Seed), nil
	}))
	MustRegister(simple("UG", core.MapUG))
	MustRegister(simple("UWH", core.MapUWH))
	MustRegister(simple("UMC", core.MapUMC))
	MustRegister(NewFunc("UMMC", Caps{NeedsMessageGraph: true}, func(in Input) ([]int32, error) {
		tab, err := tableOf(in)
		if err != nil {
			return nil, err
		}
		return core.MapUMMC(in.Coarse, in.Msg, tab, in.Exec), nil
	}))
	MustRegister(simple("UTH", core.MapUTH))
	MustRegister(NewFunc("TMAPG", Caps{}, func(in Input) ([]int32, error) {
		return baseline.TMAPGreedy(in.Coarse, in.Topo, in.Alloc, in.Seed), nil
	}))
	MustRegister(simple("UML", core.MapUML))
	MustRegister(NewFunc("UMCA", Caps{NeedsMultipath: true}, func(in Input) ([]int32, error) {
		tab, err := tableOf(in)
		if err != nil {
			return nil, err
		}
		if _, ok := torus.As[torus.MultipathTopology](tab); !ok {
			return nil, fmt.Errorf("registry: mapper UMCA needs a multipath topology")
		}
		return core.MapUMCA(in.Coarse, tab, in.Exec), nil
	}))
	MustRegister(NewFunc("HET", Caps{}, func(in Input) ([]int32, error) {
		return hetero.Map(in.Coarse, in.Topo, in.Alloc), nil
	}))
	MustRegister(NewFunc("GEOM", Caps{NeedsCoords: true}, func(in Input) ([]int32, error) {
		opt := geom.Options{Seed: in.Seed}
		if in.Exec != nil {
			opt.Par, opt.Arena, opt.Trace = in.Exec.Par, in.Exec.Arena, in.Exec.Trace
		}
		return geom.MapGEOM(in.Coords, in.Dim, in.Coarse.VW, in.Topo, in.Alloc.Nodes, opt)
	}))
	MustRegister(NewFunc("SFCM", Caps{NeedsCoords: true}, func(in Input) ([]int32, error) {
		return geom.MapSFCM(in.Coords, in.Dim, in.Topo, in.Alloc.Nodes)
	}))
}

// tableOf returns the route table the engine hands every mapper in
// in.Topo; the core mappers read their distances and routes from it.
func tableOf(in Input) (*routecache.Table, error) {
	tab, ok := in.Topo.(*routecache.Table)
	if !ok {
		return nil, fmt.Errorf("registry: Input.Topo is %T, not the engine's route table", in.Topo)
	}
	return tab, nil
}
