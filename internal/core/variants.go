package core

import (
	"repro/internal/graph"
	"repro/internal/torus"
)

// The four UMPA mapping variants of the evaluation (§IV): UG is the
// greedy mapping alone, UWH adds WH refinement, UMC and UMMC add
// congestion refinement on top of the greedy mapping.
//
// Every variant takes the solve's execution context (worker pool +
// scratch arena + cancellation) last; a nil ex runs it serially.
// Results are byte-identical across worker counts.

// MapUG produces the UG mapping: greedy with the better of NBFS∈{0,1}.
func MapUG(g *graph.Graph, topo torus.Topology, allocNodes []int32, ex *Exec) []int32 {
	return GreedyBest(g, topo, allocNodes, WeightedHops, ex)
}

// MapUWH produces the UWH mapping: UG followed by Algorithm 2.
func MapUWH(g *graph.Graph, topo torus.Topology, allocNodes []int32, ex *Exec) []int32 {
	nodeOf := MapUG(g, topo, allocNodes, ex)
	RefineWH(g, topo, allocNodes, nodeOf, RefineOptions{Exec: ex})
	return nodeOf
}

// MapUMC produces the UMC mapping: UG followed by volume-congestion
// refinement (Algorithm 3).
func MapUMC(g *graph.Graph, topo torus.Topology, allocNodes []int32, ex *Exec) []int32 {
	nodeOf := MapUG(g, topo, allocNodes, ex)
	RefineCongestion(g, topo, allocNodes, nodeOf, VolumeCongestion, RefineOptions{Exec: ex})
	return nodeOf
}

// MapUMMC produces the UMMC mapping: UG on the volume-weighted graph
// followed by message-congestion refinement on msgG, a message-count-
// weighted view of the same supertasks (taskgraph.CoarseMessageGraph).
// Pass g itself as msgG when every edge represents a single message.
func MapUMMC(g, msgG *graph.Graph, topo torus.Topology, allocNodes []int32, ex *Exec) []int32 {
	nodeOf := MapUG(g, topo, allocNodes, ex)
	RefineCongestion(msgG, topo, allocNodes, nodeOf, MessageCongestion, RefineOptions{Exec: ex})
	return nodeOf
}

// MapUMCA produces the dynamic-routing congestion variant of §III-C's
// closing remark: UG followed by the approximate congestion
// refinement in which per-link loads are expectations over all
// minimal dimension-ordered routes (Blue Gene style adaptive
// routing).
func MapUMCA(g *graph.Graph, topo torus.MultipathTopology, allocNodes []int32, ex *Exec) []int32 {
	nodeOf := MapUG(g, topo, allocNodes, ex)
	RefineCongestionAdaptive(g, topo, allocNodes, nodeOf, VolumeCongestion, RefineOptions{Exec: ex})
	return nodeOf
}

// MapUTH produces the TH-objective variant the paper mentions but
// does not plot ("we do not give the results for TH variant as they
// are very close to those of UG and UWH", §IV): greedy plus WH
// refinement, both under the TotalHops objective.
func MapUTH(g *graph.Graph, topo torus.Topology, allocNodes []int32, ex *Exec) []int32 {
	nodeOf := GreedyBest(g, topo, allocNodes, TotalHops, ex)
	RefineWH(g, topo, allocNodes, nodeOf, RefineOptions{Objective: TotalHops, Exec: ex})
	return nodeOf
}
