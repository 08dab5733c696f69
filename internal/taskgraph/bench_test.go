package taskgraph

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/arena"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// BenchmarkGroupTasks groups a launch-shape task graph — 1024 tasks, a
// random spanning tree plus ~6k random edges — onto 64 nodes of 16
// processors with a resident arena, as an Engine solve does, at one
// and two workers. Multilevel partitioning dominates it, and graph
// construction (symmetrizing, contracting, inducing subgraphs) is the
// share of that the CSR builders own.
func BenchmarkGroupTasks(b *testing.B) {
	tg := &TaskGraph{G: graph.RandomConnected(1024, 6*1024, 100, 1), K: 1024}
	caps := make([]int64, 64)
	for i := range caps {
		caps[i] = 16
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			ar := arena.New()
			par := parallel.NewGroup(context.Background(), workers)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := GroupTasksExec(tg, caps, 1, par, ar, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
