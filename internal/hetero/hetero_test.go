package hetero

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
)

// Package-local tests: finish times and the makespan summary on
// hand-computed instances, and the load-repair contract the engine's
// ownership rules rest on — group and coarse.VW rewritten in place and
// kept in sync, every move strictly lowering (makespan, groups at the
// makespan), the returned count equal to the moves made, and the whole
// pass deterministic.

// loadGraph is an edgeless task graph carrying per-task loads (nil:
// unit loads). The repair and summary read vertex weights only.
func loadGraph(loads []int64, n int) *graph.Graph {
	return graph.FromEdges(n, nil, nil, nil, loads)
}

// groupLoads sums the task loads of every group.
func groupLoads(g *graph.Graph, group []int32, nGroups int) []int64 {
	out := make([]int64, nGroups)
	for t := 0; t < g.N(); t++ {
		out[group[t]] += g.VertexWeight(t)
	}
	return out
}

func TestFinishTimesAndSummary(t *testing.T) {
	g := loadGraph([]int64{4, 2, 3, 1}, 4)
	group := []int32{0, 0, 1, 1}
	cases := []struct {
		name          string
		g             *graph.Graph
		speed         []float64 // per group
		finish        []float64
		makespan, imb float64
	}{
		// Group 0: load 6 at speed 2; group 1: load 4 at speed 1.
		{"speeds", g, []float64{2, 1}, []float64{3, 4}, 4, 4 * 2 / 7.0},
		// Unit speeds.
		{"unit speeds", g, []float64{1, 1}, []float64{6, 4}, 6, 6 * 2 / 10.0},
		// Nil loads are unit loads: two tasks per group.
		{"unit loads", loadGraph(nil, 4), []float64{2, 1}, []float64{1, 2}, 2, 2 * 2 / 3.0},
		// Nothing computes: zero makespan, zero imbalance.
		{"zero loads", loadGraph([]int64{0, 0, 0, 0}, 4), []float64{1, 1}, []float64{0, 0}, 0, 0},
	}
	for _, tc := range cases {
		if got := FinishTimes(tc.g, group, tc.speed); !reflect.DeepEqual(got, tc.finish) {
			t.Fatalf("%s: FinishTimes = %v, want %v", tc.name, got, tc.finish)
		}
		mk, imb := Summary(tc.g, group, tc.speed)
		if mk != tc.makespan || imb != tc.imb {
			t.Fatalf("%s: Summary = (%v, %v), want (%v, %v)", tc.name, mk, imb, tc.makespan, tc.imb)
		}
	}
}

func TestRepairLoadHandInstances(t *testing.T) {
	cases := []struct {
		name      string
		loads     []int64
		group     []int32
		speed     []float64 // per group
		capacity  []int64   // per group
		wantGroup []int32
		wantMoves int
	}{
		// Group 0 finishes at 9, group 1 at 1. Task 0 (load 5) moves
		// over (6 vs 4), then task 3 (load 1) moves back (5 vs 5), and
		// no further move lowers the makespan.
		{"homogeneous", []int64{5, 3, 1, 1}, []int32{0, 0, 0, 1}, []float64{1, 1},
			[]int64{4, 4}, []int32{1, 0, 0, 0}, 2},
		// Group 1's node runs twice as fast: task 0 moves onto it (8 →
		// 4 vs 3), then task 1 would make it the bottleneck at 5.
		{"speeds", []int64{4, 4, 2}, []int32{0, 0, 1}, []float64{1, 2},
			[]int64{2, 3}, []int32{1, 0, 1}, 1},
		// The same instance with group 1's node full: no feasible
		// target.
		{"full target", []int64{4, 4, 2}, []int32{0, 0, 1}, []float64{1, 2},
			[]int64{2, 1}, []int32{0, 0, 1}, 0},
	}
	for _, tc := range cases {
		g := loadGraph(tc.loads, len(tc.loads))
		group := slices.Clone(tc.group)
		coarse := &graph.Graph{VW: groupLoads(g, group, len(tc.speed))}
		moves := RepairLoad(g, coarse, group, tc.speed, tc.capacity)
		if moves != tc.wantMoves || !reflect.DeepEqual(group, tc.wantGroup) {
			t.Fatalf("%s: %d moves to %v, want %d moves to %v", tc.name, moves, group, tc.wantMoves, tc.wantGroup)
		}
		if want := groupLoads(g, group, len(tc.speed)); !reflect.DeepEqual(coarse.VW, want) {
			t.Fatalf("%s: coarse.VW = %v, want the summed group loads %v", tc.name, coarse.VW, want)
		}
	}
}

// repairInstance is a random skewed instance with free slots: tasks
// with loads 1..20 in groups hosted on nodes of speed 1, 2 or 4, every
// node with room to spare.
type repairInstance struct {
	g        *graph.Graph
	group    []int32
	speed    []float64 // per group
	capacity []int64   // per group
}

func newRepairInstance(seed int64) repairInstance {
	const nTasks, nGroups, capacity = 60, 6, 14
	rng := rand.New(rand.NewSource(seed))
	loads := make([]int64, nTasks)
	for i := range loads {
		loads[i] = 1 + rng.Int63n(20)
	}
	in := repairInstance{
		g:        loadGraph(loads, nTasks),
		group:    make([]int32, nTasks),
		speed:    make([]float64, nGroups),
		capacity: make([]int64, nGroups),
	}
	for i := range in.speed {
		in.speed[i] = []float64{1, 2, 4}[rng.Intn(3)]
		in.capacity[i] = capacity
	}
	count := make([]int64, nGroups)
	for t := range in.group {
		// Skew the start: low groups fill first.
		gi := int32(rng.Intn(1 + rng.Intn(nGroups)))
		for count[gi] >= capacity {
			gi = (gi + 1) % nGroups
		}
		in.group[t] = gi
		count[gi]++
	}
	return in
}

// objective is the pair every accepted move must strictly lower: the
// makespan, then the number of groups finishing at it.
func objective(in repairInstance, group []int32) (float64, int) {
	finish := FinishTimes(in.g, group, in.speed)
	mk := slices.Max(finish)
	at := 0
	for _, f := range finish {
		if f == mk {
			at++
		}
	}
	return mk, at
}

func TestRepairLoadContract(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		in := newRepairInstance(seed)
		nGroups := len(in.speed)

		// Step the pass move by move.
		group := slices.Clone(in.group)
		coarse := &graph.Graph{VW: groupLoads(in.g, group, nGroups)}
		r := newLoadRepair(in.g, coarse, group, in.speed, in.capacity)
		mk, at := objective(in, group)
		steps := 0
		for r.move() {
			steps++
			nmk, nat := objective(in, group)
			if nmk > mk || (nmk == mk && nat >= at) {
				t.Fatalf("seed %d move %d: (makespan, at) went (%v, %d) -> (%v, %d)", seed, steps, mk, at, nmk, nat)
			}
			mk, at = nmk, nat
			if want := groupLoads(in.g, group, nGroups); !reflect.DeepEqual(coarse.VW, want) {
				t.Fatalf("seed %d move %d: coarse.VW %v out of sync with the group loads %v", seed, steps, coarse.VW, want)
			}
			count := make([]int64, nGroups)
			for _, gi := range group {
				count[gi]++
			}
			for gi, c := range count {
				if c > in.capacity[gi] {
					t.Fatalf("seed %d move %d: group %d holds %d tasks, capacity %d", seed, steps, gi, c, in.capacity[gi])
				}
			}
		}
		if steps == 0 {
			t.Fatalf("seed %d: skewed instance made no move", seed)
		}

		// RepairLoad counts exactly those moves and lands on the same
		// placement, run after run.
		for run := 0; run < 2; run++ {
			g2 := slices.Clone(in.group)
			c2 := &graph.Graph{VW: groupLoads(in.g, g2, nGroups)}
			if moves := RepairLoad(in.g, c2, g2, in.speed, in.capacity); moves != steps {
				t.Fatalf("seed %d: RepairLoad reported %d moves, the pass made %d", seed, moves, steps)
			}
			if !reflect.DeepEqual(g2, group) || !reflect.DeepEqual(c2.VW, coarse.VW) {
				t.Fatalf("seed %d run %d: RepairLoad placement diverged", seed, run)
			}
		}
		// The result is a fixed point.
		if moves := RepairLoad(in.g, coarse, group, in.speed, in.capacity); moves != 0 {
			t.Fatalf("seed %d: a second pass made %d more moves", seed, moves)
		}
	}
}
