package netsim

import (
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/torus"
)

// Adaptive-routing execution model (§III-C's closing remark). The
// static simulator commits every message to its dimension-ordered
// route; a Blue Gene style adaptively routed torus instead sprays a
// message's packets over its minimal routes. This simulator is the
// same message-time model with every minimal route in play: a
// message's bytes divide evenly across its P minimal routes, every
// link carries the *expected* message load (metrics.ExpectedLinkLoads,
// the loads the EMC/EMMC metrics score), and the message completes
// when its slowest chunk does. Mappings that lower the expected
// congestion (UMCA) show up faster here, the same way MC-refined
// mappings show up faster under the static model.

// CommOnlyAdaptive simulates the communication-only application of
// §IV-C on an adaptively routed network: all transfers start at time
// zero, each sprayed evenly over its minimal routes, and the
// application finishes with its slowest message.
func CommOnlyAdaptive(tg *graph.Graph, topo torus.MultipathTopology, pl *metrics.Placement, bytesPerUnit float64, p Params) Result {
	p = p.withDefaults()
	_, load := metrics.ExpectedLinkLoads(tg, topo, pl)
	return slowest(messageTimes(tg, topo, pl, load, topo.ForEachMinimalRoute, bytesPerUnit, p), p)
}
