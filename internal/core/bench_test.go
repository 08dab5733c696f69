package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/alloc"
	"repro/internal/arena"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/taskgraph"
	"repro/internal/torus"
)

// BenchmarkRefineWH runs Algorithm 2 alone, as the solve's UWH map
// stage and the warm remap do: from UG's placement of a coarse graph,
// with a resident arena, at one and two workers. The two shapes are the
// launch shape (1024 tasks grouped onto 64 sparse nodes of a 16x12x16
// torus, 16 processors each) and the remap shape (2048 tasks onto 128),
// each task graph a random spanning tree plus 6 random edges per task,
// grouped by the partitioner.
func BenchmarkRefineWH(b *testing.B) {
	topo := torus.NewHopper3D(16, 12, 16)
	for _, shape := range []struct {
		name          string
		tasks, groups int
	}{{"launch", 1024, 64}, {"remap", 2048, 128}} {
		sym := graph.RandomConnected(shape.tasks, 6*shape.tasks, 100, 1).Symmetrize(nil)
		caps := make([]int64, shape.groups)
		for i := range caps {
			caps[i] = 16
		}
		group, err := taskgraph.GroupTasks(sym, caps, 1, nil, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		coarse := graph.Contract(sym, group, shape.groups, nil)
		a, err := alloc.Generate(topo, shape.groups, alloc.Config{Mode: alloc.Sparse, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		tab := table(b, topo, a.Nodes)
		base := MapUG(coarse, tab, nil)
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/w%d", shape.name, workers), func(b *testing.B) {
				ex := &Exec{Par: parallel.NewGroup(context.Background(), workers), Arena: arena.New()}
				nodeOf := make([]int32, len(base))
				b.ReportAllocs()
				for b.Loop() {
					copy(nodeOf, base)
					RefineWH(coarse, tab, nodeOf, RefineOptions{Exec: ex})
				}
			})
		}
	}
}
