package taskgraph

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/arena"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// uniformCaps returns n node capacities of procs each.
func uniformCaps(n int, procs int64) []int64 {
	caps := make([]int64, n)
	for i := range caps {
		caps[i] = procs
	}
	return caps
}

// BenchmarkGroupTasks groups a launch-shape task graph — 1024 tasks, a
// random spanning tree plus ~6k random edges — onto 64 nodes of 16
// processors with a resident arena, as an Engine solve does, at one
// and two workers. Each iteration symmetrizes the task graph first, as
// the solve's group stage does. Multilevel partitioning dominates it,
// and graph construction (symmetrizing, contracting, inducing
// subgraphs) is the share of that the CSR builders own.
func BenchmarkGroupTasks(b *testing.B) {
	tg := &TaskGraph{G: graph.RandomConnected(1024, 6*1024, 100, 1), K: 1024}
	caps := uniformCaps(64, 16)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			ar := arena.New()
			par := parallel.NewGroup(context.Background(), workers)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := GroupTasks(tg.G.Symmetrize(ar), caps, 1, par, ar, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCoarseGraph contracts a symmetrized task graph over its
// grouping with a resident arena, as the solve's coarsen stage does:
// the launch shape (1024 tasks onto 64 groups of 16) and the remap
// shape (2048 tasks onto 128 groups of 16), each task graph a random
// spanning tree plus 6 random edges per task.
func BenchmarkCoarseGraph(b *testing.B) {
	for _, shape := range []struct {
		name          string
		tasks, groups int
	}{{"launch", 1024, 64}, {"remap", 2048, 128}} {
		tg := &TaskGraph{G: graph.RandomConnected(shape.tasks, 6*shape.tasks, 100, 1), K: shape.tasks}
		sym := tg.G.Symmetrize(nil)
		group, err := GroupTasks(sym, uniformCaps(shape.groups, 16), 1, nil, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(shape.name, func(b *testing.B) {
			ar := arena.New()
			b.ReportAllocs()
			for b.Loop() {
				graph.Contract(sym, group, shape.groups, ar)
			}
		})
	}
}
