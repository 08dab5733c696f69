// Package metrics computes the topology-aware mapping metrics of the
// paper's §II: total hops TH, weighted hops WH, maximum message
// congestion MMC, maximum (volume) congestion MC, and the averaged
// variants AMC and AC, plus the extra regression covariates of §IV-E
// (ICV, ICM, MNRV, MNRM). All metrics are evaluated on the fine task
// graph through the task→group→node composition, with messages routed
// on the topology's static shortest paths.
package metrics

import (
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/torus"
)

// MapMetrics holds every mapping metric for one mapping. It is also
// the metrics object of the mapd wire: the JSON names are the
// canonical metric names MetricNames lists, in the same order.
type MapMetrics struct {
	TH  int64   `json:"th"`  // total hop count: sum of dilations over task edges
	WH  int64   `json:"wh"`  // weighted hops: dilation * volume
	MMC int64   `json:"mmc"` // max messages crossing any link
	MC  float64 `json:"mc"`  // max volume congestion: max over links of volume/bw
	AMC float64 `json:"amc"` // average message congestion over used links
	AC  float64 `json:"ac"`  // average volume congestion over used links

	ICV  int64 `json:"icv"`  // inter-node communication volume
	ICM  int64 `json:"icm"`  // inter-node message count
	MNRV int64 `json:"mnrv"` // max volume received by a node
	MNRM int64 `json:"mnrm"` // max messages received by a node

	UsedLinks int `json:"used_links"` // |E_tm|: links carrying at least one message

	// Heterogeneous-processor metrics (per-task loads × per-node
	// speeds): the compute makespan max over nodes of load/speed, and
	// the load imbalance max/mean of the same per-node finish times
	// (see LoadSummary). On homogeneous inputs (unit loads, unit
	// speeds) makespan is the largest group size — still well defined,
	// just capacity-shaped.
	Makespan      float64 `json:"makespan"`
	LoadImbalance float64 `json:"load_imbalance"`
}

// Placement maps fine tasks to nodes: node(t) = NodeOf[GroupOf[t]]
// when GroupOf is non-nil, else NodeOf[t] directly.
type Placement struct {
	GroupOf []int32 // task -> group (nil for identity)
	NodeOf  []int32 // group -> network node
}

// Node returns the network node hosting task t.
func (p *Placement) Node(t int32) int32 {
	if p.GroupOf == nil {
		return p.NodeOf[t]
	}
	return p.NodeOf[p.GroupOf[t]]
}

// groupIndex lists each group's member tasks once, by counting sort:
// group g's tasks are members[start[g]:start[g+1]], ascending, and of
// maps every task to its group. An identity placement (nil GroupOf) is
// one task per group.
type groupIndex struct {
	of, start, members []int32
}

func newGroupIndex(tg *graph.Graph, pl *Placement) groupIndex {
	n := tg.N()
	of, ng := pl.GroupOf, len(pl.NodeOf)
	if of == nil {
		of, ng = make([]int32, n), n
		for t := range of {
			of[t] = int32(t)
		}
	}
	gi := groupIndex{of: of[:n], start: make([]int32, ng+1), members: make([]int32, n)}
	for _, g := range gi.of {
		gi.start[g+1]++
	}
	for g := 0; g < ng; g++ {
		gi.start[g+1] += gi.start[g]
	}
	// start[g] is group g's fill cursor until the shift below restores
	// it from start[g-1]'s final value.
	for t, g := range gi.of {
		gi.members[gi.start[g]] = int32(t)
		gi.start[g]++
	}
	copy(gi.start[1:], gi.start[:ng])
	gi.start[0] = 0
	return gi
}

// groups returns the number of groups.
func (gi *groupIndex) groups() int { return len(gi.start) - 1 }

// computeState accumulates the partial sums of one group range. Every
// field is an integer count, so merging states is exact and
// order-independent — the property the parallel evaluation's
// any-worker-count determinism rests on.
type computeState struct {
	th, wh, icv, icm int64
	links            []Traffic // per link
	recv             []Traffic // per receiving group
}

// Traffic counts the messages and volume crossing one link or
// received by one group. The two counts sit side by side so that adding
// a route's traffic touches one cache line per link.
type Traffic struct {
	Count, Vol int64
}

func (t *Traffic) add(u Traffic) {
	t.Count += u.Count
	t.Vol += u.Vol
}

// pairSum is the traffic of one group's tasks to one other group.
type pairSum struct {
	Traffic
	seen int32 // source group + 1 that last reset the sum
}

// accumulate adds the traffic of groups [lo,hi) to st. Each group's
// out-edges are summed per destination group through a dense marker,
// so every ordered group pair on distinct nodes is routed once and
// its messages and volume are added along the route in one step:
// hops·count to TH, hops·volume to WH, count and volume to every link
// of the route and to the receiving group.
func (st *computeState) accumulate(tg *graph.Graph, topo torus.Topology, nodeOf []int32, gi *groupIndex, lo, hi int) {
	sums := make([]pairSum, gi.groups())
	var dests, route []int32
	for ga := lo; ga < hi; ga++ {
		stamp := int32(ga) + 1
		dests = dests[:0]
		for _, t := range gi.members[gi.start[ga]:gi.start[ga+1]] {
			for i := tg.Xadj[t]; i < tg.Xadj[t+1]; i++ {
				gb := gi.of[tg.Adj[i]]
				if int(gb) == ga {
					continue // intra-group: no network traffic
				}
				ps := &sums[gb]
				if ps.seen != stamp {
					*ps = pairSum{seen: stamp}
					dests = append(dests, gb)
				}
				ps.add(Traffic{Count: 1, Vol: tg.EdgeWeight(int(i))})
			}
		}
		a := int(nodeOf[ga])
		for _, gb := range dests {
			b := int(nodeOf[gb])
			if a == b {
				continue // intra-node: no network traffic
			}
			ps := sums[gb]
			hops := int64(topo.HopDist(a, b))
			st.th += hops * ps.Count
			st.wh += hops * ps.Vol
			st.icv += ps.Vol
			st.icm += ps.Count
			st.recv[gb].add(ps.Traffic)
			route = topo.Route(a, b, route[:0])
			for _, l := range route {
				st.links[l].add(ps.Traffic)
			}
		}
	}
}

// merge adds p's partial sums into st.
func (st *computeState) merge(p *computeState) {
	st.th += p.th
	st.wh += p.wh
	st.icv += p.icv
	st.icm += p.icm
	for l, t := range p.links {
		st.links[l].add(t)
	}
	for g, t := range p.recv {
		st.recv[g].add(t)
	}
}

// finalize derives the aggregate metrics from a fully merged state;
// nodeOf places the groups, whose receive totals add up per node.
func (st *computeState) finalize(topo torus.Topology, nodeOf []int32) MapMetrics {
	m := MapMetrics{TH: st.th, WH: st.wh, ICV: st.icv, ICM: st.icm}
	var sumMsg int64
	var sumVC float64
	for l, t := range st.links {
		if t.Count == 0 {
			continue
		}
		m.UsedLinks++
		sumMsg += t.Count
		if t.Count > m.MMC {
			m.MMC = t.Count
		}
		vc := float64(t.Vol) / topo.LinkBW(l)
		sumVC += vc
		if vc > m.MC {
			m.MC = vc
		}
	}
	if m.UsedLinks > 0 {
		m.AMC = float64(sumMsg) / float64(m.UsedLinks)
		m.AC = sumVC / float64(m.UsedLinks)
	}
	byNode := make(map[int32]Traffic, len(st.recv))
	for g, t := range st.recv {
		if t.Count > 0 {
			r := byNode[nodeOf[g]]
			r.add(t)
			byNode[nodeOf[g]] = r
		}
	}
	for _, t := range byNode {
		m.MNRV = max(m.MNRV, t.Vol)
		m.MNRM = max(m.MNRM, t.Count)
	}
	return m
}

func newComputeState(topo torus.Topology, groups int) computeState {
	return computeState{
		links: make([]Traffic, topo.Links()),
		recv:  make([]Traffic, groups),
	}
}

// LoadSummary computes the compute makespan of a placement and its
// load imbalance: each group's summed task loads (the vertex weights
// of the fine task graph tg) over the speed of its node, the maximum
// of these finish times, and that maximum over their mean (1 is
// perfectly balanced, 0 when nothing computes). speed holds one
// factor per group; nil means unit speed. It reads the fine graph, so
// it is exact after task-level migration and fine-level refinement.
func LoadSummary(tg *graph.Graph, pl *Placement, speed []float64) (makespan, imbalance float64) {
	n := len(pl.NodeOf)
	load := make([]int64, n)
	for t := 0; t < tg.N(); t++ {
		g := int32(t)
		if pl.GroupOf != nil {
			g = pl.GroupOf[t]
		}
		load[g] += tg.VertexWeight(t)
	}
	var sum float64
	for g, l := range load {
		finish := float64(l)
		if speed != nil {
			finish /= speed[g]
		}
		sum += finish
		makespan = max(makespan, finish)
	}
	if sum > 0 {
		imbalance = makespan * float64(n) / sum
	}
	return makespan, imbalance
}

// Compute evaluates all metrics for the directed task graph tg under
// the placement on topo, serially.
func Compute(tg *graph.Graph, topo torus.Topology, pl *Placement) MapMetrics {
	return ComputePar(tg, topo, pl, nil)
}

// LinkTraffic returns the messages and volume the placement puts on
// every directed link of topo: the exact per-link pass Compute derives
// MC, MMC, AC and AMC from, routing every ordered pair of groups on
// distinct nodes once along its static route.
func LinkTraffic(tg *graph.Graph, topo torus.Topology, pl *Placement) []Traffic {
	gi := newGroupIndex(tg, pl)
	st := newComputeState(topo, gi.groups())
	st.accumulate(tg, topo, pl.NodeOf, &gi, 0, gi.groups())
	return st.links
}

// parallelComputeMinTasks gates the parallel evaluation: below this
// many tasks the per-shard link arrays cost more than the edge walk.
const parallelComputeMinTasks = 512

// ComputePar is Compute with the groups sharded by range over the
// solve's bounded worker pool and the partial sums reduced in shard
// order. Every accumulated quantity is an integer count, so the merged
// state — and therefore every metric, including the float aggregates
// derived from it — is identical at any worker count, including the
// serial path a nil or single-worker group takes.
func ComputePar(tg *graph.Graph, topo torus.Topology, pl *Placement, par *parallel.Group) MapMetrics {
	gi := newGroupIndex(tg, pl)
	ng := gi.groups()
	// Stay serial when the fan-out cannot pay for itself: each shard
	// allocates and later merges a link-length array, so a sparse
	// graph on a huge topology (edges under one link-array's worth of
	// work) would spend more on shard state than on the edge walk.
	shards := 1
	if workers := par.NumWorkers(); workers > 1 && tg.N() >= parallelComputeMinTasks && tg.M() >= topo.Links() {
		shards = min(workers, ng)
	}
	parts := make([]computeState, shards)
	chunk := (ng + shards - 1) / shards
	par.ForEachIdx(shards, func(s int) {
		parts[s] = newComputeState(topo, ng)
		parts[s].accumulate(tg, topo, pl.NodeOf, &gi, min(s*chunk, ng), min((s+1)*chunk, ng))
	})
	st := &parts[0]
	for s := 1; s < shards; s++ {
		st.merge(&parts[s])
	}
	m := st.finalize(topo, pl.NodeOf)
	m.Makespan, m.LoadImbalance = LoadSummary(tg, pl, nil)
	return m
}

// WeightedHops computes only WH for a symmetric coarse graph mapped
// one-to-one onto nodes (each stored direction counted once; for a
// symmetric graph WH of the directed view double-counts each
// undirected edge, matching the refinement algorithms' internal
// accounting).
func WeightedHops(g *graph.Graph, topo torus.Topology, nodeOf []int32) int64 {
	var wh int64
	for v := 0; v < g.N(); v++ {
		a := int(nodeOf[v])
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			b := int(nodeOf[g.Adj[i]])
			wh += int64(topo.HopDist(a, b)) * g.EdgeWeight(int(i))
		}
	}
	return wh
}
