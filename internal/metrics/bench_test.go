package metrics

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/routecache"
	"repro/internal/taskgraph"
	"repro/internal/torus"
)

// BenchmarkComputeMetrics evaluates a grouped placement through the
// route-cached view of a 16x12x16 torus, as the solve's metrics stage
// does, at one and two workers: the launch shape (1024 tasks grouped
// onto 64 sparse nodes of 16 processors) and the remap shape (2048
// tasks onto 128), each task graph a random spanning tree plus 6 random
// edges per task, grouped by the partitioner.
func BenchmarkComputeMetrics(b *testing.B) {
	topo := torus.NewHopper3D(16, 12, 16)
	for _, shape := range []struct {
		name          string
		tasks, groups int
	}{{"launch", 1024, 64}, {"remap", 2048, 128}} {
		tg := &taskgraph.TaskGraph{G: graph.RandomConnected(shape.tasks, 6*shape.tasks, 100, 1), K: shape.tasks}
		caps := make([]int64, shape.groups)
		for i := range caps {
			caps[i] = 16
		}
		group, err := taskgraph.GroupTasks(tg.G.Symmetrize(nil), caps, 1, nil, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		nodes := make([]int32, shape.groups)
		for i, m := range rand.New(rand.NewSource(1)).Perm(topo.Nodes())[:shape.groups] {
			nodes[i] = int32(m)
		}
		view, err := routecache.New(topo, nodes)
		if err != nil {
			b.Fatal(err)
		}
		pl := &Placement{GroupOf: group, NodeOf: nodes}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/w%d", shape.name, workers), func(b *testing.B) {
				par := parallel.NewGroup(context.Background(), workers)
				b.ReportAllocs()
				for b.Loop() {
					ComputePar(tg.G, view, pl, par)
				}
			})
		}
	}
}
