package metrics

import (
	"repro/internal/graph"
	"repro/internal/torus"
)

// AdaptiveMetrics holds the expected-congestion metrics of a mapping
// under the dynamic-routing model of torus.MultipathTopology: every
// message is spread uniformly over its minimal dimension-ordered
// routes, so per-link loads are expectations (§III-C's Blue Gene
// remark). Hop metrics are unchanged by the routing policy (all
// minimal routes have the same length), so only the congestion family
// is recomputed here.
type AdaptiveMetrics struct {
	EMC  float64 // expected max volume congestion: max over links of E[volume]/bw
	EMMC float64 // expected max message congestion: max over links of E[messages]
	EAC  float64 // average expected volume congestion over used links
	EAMC float64 // average expected message congestion over used links

	// UsedLinks counts links with a nonzero probability of carrying
	// traffic (a superset of the static UsedLinks).
	UsedLinks int
}

// ExpectedLinkLoads returns every directed link's expected volume and
// message load when each message of the directed task graph tg is
// spread uniformly over its P minimal routes: each route carries 1/P of
// the message and w/P of its volume w. ComputeAdaptive scores these
// loads, and the adaptive simulator of internal/netsim times messages
// by the message loads.
func ExpectedLinkLoads(tg *graph.Graph, topo torus.MultipathTopology, pl *Placement) (vol, msg []float64) {
	vol = make([]float64, topo.Links())
	msg = make([]float64, topo.Links())
	var w, p float64
	spread := func(route []int32) {
		for _, l := range route {
			vol[l] += w / p
			msg[l] += 1 / p
		}
	}
	for t := 0; t < tg.N(); t++ {
		a := pl.Node(int32(t))
		for i := tg.Xadj[t]; i < tg.Xadj[t+1]; i++ {
			b := pl.Node(tg.Adj[i])
			if a == b {
				continue
			}
			w = float64(tg.EdgeWeight(int(i)))
			p = float64(topo.NumMinimalRoutes(int(a), int(b)))
			topo.ForEachMinimalRoute(int(a), int(b), spread)
		}
	}
	return vol, msg
}

// ComputeAdaptive evaluates the expected congestion of the directed
// task graph tg under the placement, with every message routed
// uniformly at random over its minimal dimension-ordered routes.
func ComputeAdaptive(tg *graph.Graph, topo torus.MultipathTopology, pl *Placement) AdaptiveMetrics {
	volLoad, msgLoad := ExpectedLinkLoads(tg, topo, pl)
	var m AdaptiveMetrics
	var sumVC, sumMsg float64
	for l := range volLoad {
		if msgLoad[l] == 0 {
			continue
		}
		m.UsedLinks++
		vc := volLoad[l] / topo.LinkBW(l)
		sumVC += vc
		sumMsg += msgLoad[l]
		if vc > m.EMC {
			m.EMC = vc
		}
		if msgLoad[l] > m.EMMC {
			m.EMMC = msgLoad[l]
		}
	}
	if m.UsedLinks > 0 {
		m.EAC = sumVC / float64(m.UsedLinks)
		m.EAMC = sumMsg / float64(m.UsedLinks)
	}
	return m
}
