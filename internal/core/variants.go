package core

import (
	"repro/internal/graph"
	"repro/internal/routecache"
)

// The four UMPA mapping variants of the evaluation (§IV): UG is the
// greedy mapping alone, UWH adds WH refinement, UMC and UMMC add
// congestion refinement on top of the greedy mapping.
//
// Every variant maps onto the allocated nodes of the route table tab
// and takes the solve's execution context (worker pool + scratch
// arena + cancellation) last; a nil ex runs it serially. Results are
// byte-identical across worker counts.

// MapUG produces the UG mapping: greedy with the better of NBFS∈{0,1}.
func MapUG(g *graph.Graph, tab *routecache.Table, ex *Exec) []int32 {
	return GreedyBest(g, tab, WeightedHops, ex)
}

// MapUWH produces the UWH mapping: UG followed by Algorithm 2.
func MapUWH(g *graph.Graph, tab *routecache.Table, ex *Exec) []int32 {
	nodeOf := MapUG(g, tab, ex)
	RefineWH(g, tab, nodeOf, RefineOptions{Exec: ex})
	return nodeOf
}

// MapUMC produces the UMC mapping: UG followed by volume-congestion
// refinement (Algorithm 3).
func MapUMC(g *graph.Graph, tab *routecache.Table, ex *Exec) []int32 {
	nodeOf := MapUG(g, tab, ex)
	RefineCongestion(g, tab, nodeOf, VolumeCongestion, RefineOptions{Exec: ex})
	return nodeOf
}

// MapUMMC produces the UMMC mapping: UG on the volume-weighted graph
// followed by message-congestion refinement on msgG, a message-count-
// weighted view of the same supertasks (taskgraph.CoarseMessageGraph).
// Pass g itself as msgG when every edge represents a single message.
func MapUMMC(g, msgG *graph.Graph, tab *routecache.Table, ex *Exec) []int32 {
	nodeOf := MapUG(g, tab, ex)
	RefineCongestion(msgG, tab, nodeOf, MessageCongestion, RefineOptions{Exec: ex})
	return nodeOf
}

// MapUMCA produces the dynamic-routing congestion variant of §III-C's
// closing remark: UG followed by the approximate congestion
// refinement in which per-link loads are expectations over all
// minimal dimension-ordered routes (Blue Gene style adaptive
// routing). tab's topology must enumerate minimal routes
// (torus.MultipathOf).
func MapUMCA(g *graph.Graph, tab *routecache.Table, ex *Exec) []int32 {
	nodeOf := MapUG(g, tab, ex)
	RefineCongestionAdaptive(g, tab, nodeOf, VolumeCongestion, RefineOptions{Exec: ex})
	return nodeOf
}

// MapUTH produces the TH-objective variant the paper mentions but
// does not plot ("we do not give the results for TH variant as they
// are very close to those of UG and UWH", §IV): greedy plus WH
// refinement, both under the TotalHops objective.
func MapUTH(g *graph.Graph, tab *routecache.Table, ex *Exec) []int32 {
	nodeOf := GreedyBest(g, tab, TotalHops, ex)
	RefineWH(g, tab, nodeOf, RefineOptions{Objective: TotalHops, Exec: ex})
	return nodeOf
}
