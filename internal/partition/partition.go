// Package partition implements a multilevel graph partitioner in the
// style of METIS/Scotch/KaFFPa: heavy-edge-matching coarsening, greedy
// graph growing initial bisection, Fiduccia–Mattheyses refinement, and
// recursive bisection to k parts with arbitrary per-part target
// weights. The paper uses graph partitioners both to produce the MPI
// task graphs (§IV-A) and to group tasks onto allocated nodes before
// mapping (§III-A); this package plays both roles.
package partition

import (
	"fmt"
	"math/bits"

	"repro/internal/arena"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// Matching selects the coarsening matching policy.
type Matching int

// Matching policies.
const (
	// HeavyEdge matches each vertex with its heaviest unmatched
	// neighbour (METIS-style HEM).
	HeavyEdge Matching = iota
	// RandomEdge matches with a random unmatched neighbour
	// (Scotch-style, cheaper and slightly lower quality).
	RandomEdge
)

// Options tunes the partitioner; the zero value is usable.
type Options struct {
	// Seed drives all randomized decisions; runs are deterministic
	// for a fixed seed.
	Seed int64
	// Imbalance is the allowed relative imbalance epsilon (default 0.05):
	// every part p must satisfy weight(p) <= target(p)*(1+eps).
	Imbalance float64
	// InitRuns is the number of greedy-graph-growing attempts for the
	// coarsest bisection (default 4).
	InitRuns int
	// FMPasses bounds the refinement passes per level (default 2).
	FMPasses int
	// Matching selects the coarsening policy.
	Matching Matching
	// CoarsenTo stops coarsening when a level has at most this many
	// vertices (default 96).
	CoarsenTo int
	// MaxNegMoves is the FM hill-climbing window: a pass aborts after
	// this many consecutive non-improving moves (default 100).
	MaxNegMoves int
	// Par, when non-nil, runs independent bisection subtrees on the
	// group's bounded worker pool and polls it for cooperative
	// cancellation. Every subtree draws from its own seeded RNG, so
	// the split tree — and therefore the part vector — is identical
	// for every worker count, including nil (serial).
	Par *parallel.Group
	// Arena, when non-nil, supplies the recycled side/gain/heap
	// scratch of the bisection pipeline, so steady-state partitioning
	// allocates almost nothing. A nil Arena allocates fresh buffers.
	Arena *arena.Arena
	// Trace, when non-nil, receives per-stage counters (bisections
	// run, maximum recursion depth) on its open span. Counters are
	// reported once per bisection subtree — never from an inner loop —
	// and never influence a partitioning decision.
	Trace *trace.Trace
}

func (o Options) withDefaults() Options {
	if o.Imbalance == 0 {
		o.Imbalance = 0.05
	}
	if o.InitRuns == 0 {
		o.InitRuns = 4
	}
	if o.FMPasses == 0 {
		o.FMPasses = 2
	}
	if o.CoarsenTo == 0 {
		o.CoarsenTo = 96
	}
	if o.MaxNegMoves == 0 {
		o.MaxNegMoves = 100
	}
	return o
}

// Partition splits g into k parts of equal target weight and returns
// the part vector. g must be symmetric (undirected).
func Partition(g *graph.Graph, k int, opt Options) ([]int32, error) {
	targets := make([]int64, k)
	total := g.TotalVertexWeight()
	for i := range targets {
		targets[i] = total / int64(k)
		if int64(i) < total%int64(k) {
			targets[i]++
		}
	}
	return PartitionTargets(g, targets, opt)
}

// PartitionTargets splits g into len(targets) parts where part p aims
// for weight targets[p]. Recursive bisection assigns contiguous part
// id ranges to graph regions, so nearby part ids correspond to nearby
// vertices — the locality property the paper notes makes DEF mappings
// strong (§IV-B).
func PartitionTargets(g *graph.Graph, targets []int64, opt Options) ([]int32, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("partition: no targets")
	}
	opt = opt.withDefaults()
	var totalTarget int64
	for _, t := range targets {
		if t < 0 {
			return nil, fmt.Errorf("partition: negative target")
		}
		totalTarget += t
	}
	if totalTarget <= 0 {
		return nil, fmt.Errorf("partition: zero total target")
	}
	part := make([]int32, g.N())
	vertices := make([]int32, g.N())
	for i := range vertices {
		vertices[i] = int32(i)
	}
	recursiveBisect(g, vertices, targets, 0, opt, 1, part)
	if err := opt.Par.Err(); err != nil {
		return nil, err
	}
	return part, nil
}

// recursiveBisect assigns part ids [offset, offset+len(targets)) to
// the given vertices of g (a subgraph of the original, with original
// ids tracked by the caller through vertices). The two halves recurse
// as independent subtasks: they write disjoint ranges of out and
// disjoint subslices of vertices, so Options.Par may run them on any
// worker. path identifies the subtree for its seeded RNG.
func recursiveBisect(g *graph.Graph, vertices []int32, targets []int64, offset int, opt Options, path uint64, out []int32) {
	if opt.Par.Cancelled() {
		return // caller surfaces the context error
	}
	if len(targets) == 1 {
		for _, v := range vertices {
			out[v] = int32(offset)
		}
		return
	}
	kl := len(targets) / 2
	var twL, twR int64
	for i, t := range targets {
		if i < kl {
			twL += t
		} else {
			twR += t
		}
	}
	// Tighten the per-bisection imbalance so leaf parts still meet the
	// global epsilon after log2(k) nested bisections.
	bisOpt := opt
	levels := 1
	for 1<<levels < len(targets) {
		levels++
	}
	bisOpt.Imbalance = opt.Imbalance / float64(levels)
	rng := parallel.SubtreeRNG(opt.Seed, path)
	side := bisect(g, [2]int64{twL, twR}, bisOpt, rng)
	// path doubles per level, so its bit length is the subtree's depth
	// in the split tree (root 1 = depth 0).
	opt.Trace.Add("bisections", 1)
	opt.Trace.Max("bisect_depth", int64(bits.Len64(path)-1))

	ar := opt.Arena
	nl := 0
	for _, s := range side {
		if s == 0 {
			nl++
		}
	}
	leftLocal := ar.Int32s(nl)
	rightLocal := ar.Int32s(len(side) - nl)
	// Reorder vertices in place into [left block | right block]: the
	// subtrees then own disjoint subslices instead of freshly
	// allocated id lists.
	buf := ar.Int32s(len(vertices))
	li, ri := 0, nl
	for i, v := range vertices {
		if side[i] == 0 {
			leftLocal[li] = int32(i)
			buf[li] = v
			li++
		} else {
			rightLocal[ri-nl] = int32(i)
			buf[ri] = v
			ri++
		}
	}
	copy(vertices, buf)
	ar.PutInt32s(buf)
	ar.PutInt8s(side)
	leftIDs, rightIDs := vertices[:nl], vertices[nl:]
	gl, _ := g.InducedSubgraph(ar, leftLocal)
	gr, _ := g.InducedSubgraph(ar, rightLocal)
	ar.PutInt32s(leftLocal)
	ar.PutInt32s(rightLocal)
	opt.Par.Fork(
		func() { recursiveBisect(gl, leftIDs, targets[:kl], offset, opt, 2*path, out) },
		func() { recursiveBisect(gr, rightIDs, targets[kl:], offset+kl, opt, 2*path+1, out) },
	)
}

// EdgeCut returns the weight of edges crossing parts (each undirected
// edge counted once for symmetric graphs storing both directions).
func EdgeCut(g *graph.Graph, part []int32) int64 {
	var cut int64
	for u := 0; u < g.N(); u++ {
		for i := g.Xadj[u]; i < g.Xadj[u+1]; i++ {
			v := g.Adj[i]
			if part[u] != part[v] {
				cut += g.EdgeWeight(int(i))
			}
		}
	}
	return cut / 2
}

// PartWeights returns the total vertex weight of each of the k parts.
func PartWeights(g *graph.Graph, part []int32, k int) []int64 {
	w := make([]int64, k)
	for v := 0; v < g.N(); v++ {
		w[part[v]] += g.VertexWeight(v)
	}
	return w
}

// Imbalance returns max_p weight(p)/target(p) - 1; zero targets with
// nonzero weight yield +Inf-like large values.
func Imbalance(weights, targets []int64) float64 {
	worst := 0.0
	for p := range weights {
		if targets[p] == 0 {
			if weights[p] > 0 {
				return 1e18
			}
			continue
		}
		r := float64(weights[p])/float64(targets[p]) - 1
		if r > worst {
			worst = r
		}
	}
	return worst
}
