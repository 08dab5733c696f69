// Package netsim simulates the execution time of the paper's two
// applications on the modelled torus: the synthetic communication-only
// application of §IV-C (all transfers initiated simultaneously) and
// the Trilinos-style SpMV kernel of §IV-D. The simulator substitutes
// for the Hopper runs: it is a contention-aware max-rate model whose
// completion times respond to exactly the factors the paper's metrics
// capture — dilation (WH/TH), link sharing (MC/MMC) and per-message
// latency (AMC/TH) — so mapping-quality differences show up in the
// simulated times the way they showed up on the real machine.
package netsim

import (
	"math"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/torus"
)

// Params tunes the cost model; zero fields take Hopper-like defaults.
// The JSON tags make Params part of the serializable Solve spec (the
// mapd wire protocol carries it inside a sim block verbatim).
type Params struct {
	// LatNear is the one-hop message latency (default 1.27µs, §II-B).
	LatNear float64 `json:"lat_near,omitempty"`
	// LatFar is the network-diameter latency (default 3.88µs).
	LatFar float64 `json:"lat_far,omitempty"`
	// PerMessageOverhead is the CPU cost to post/receive one message
	// (default 1µs).
	PerMessageOverhead float64 `json:"per_message_overhead,omitempty"`
	// ComputeRate is the per-processor SpMV nonzero throughput per
	// second (default 1e9).
	ComputeRate float64 `json:"compute_rate,omitempty"`
	// NoiseSigma is the relative standard deviation of the
	// multiplicative run-to-run noise (default 0.01; the paper
	// repeats every execution 5 times for the same reason).
	NoiseSigma float64 `json:"noise_sigma,omitempty"`
	// Seed drives the noise.
	Seed int64 `json:"seed,omitempty"`
}

func (p Params) withDefaults() Params {
	if p.LatNear == 0 {
		p.LatNear = torus.HopperLatNear
	}
	if p.LatFar == 0 {
		p.LatFar = torus.HopperLatFar
	}
	if p.PerMessageOverhead == 0 {
		p.PerMessageOverhead = 1e-6
	}
	if p.ComputeRate == 0 {
		p.ComputeRate = 1e9
	}
	if p.NoiseSigma == 0 {
		p.NoiseSigma = 0.01
	}
	return p
}

// latency interpolates the paper's near/far latencies by hop count.
func (p Params) latency(hops, diameter int) float64 {
	if hops <= 0 {
		return 0
	}
	if diameter <= 1 {
		return p.LatNear
	}
	f := float64(hops-1) / float64(diameter-1)
	return p.LatNear + (p.LatFar-p.LatNear)*f
}

// Result carries a simulated execution time.
type Result struct {
	// Seconds is the simulated wall-clock time.
	Seconds float64
}

// messageTimes computes, for every directed task edge, the transfer
// time of its message under the bandwidth-sharing max-rate model.
// routes(a, b, fn) calls fn once per route a message from a to b takes
// and returns how many there are; the message's bytes split evenly
// over them. load holds each link's message load, and a message's rate
// on a link is the link bandwidth over that load. Its slowest chunk
// decides, so its rate is the lowest share over the links of all its
// routes (division rounds monotonically, so the chunk over that share
// is exactly the largest per-route time), and its time adds the
// hop-dependent latency. Intra-node edges get time 0. The result is
// indexed by the edge's position in tg's CSR.
func messageTimes(tg *graph.Graph, topo torus.Topology, pl *metrics.Placement, load []float64,
	routes func(a, b int, fn func(route []int32)) int, bytesPerUnit float64, p Params) []float64 {
	diam := topo.Diameter()
	times := make([]float64, tg.M())
	var minRate float64
	var hops int
	visit := func(route []int32) {
		for _, l := range route {
			if share := topo.LinkBW(int(l)) / load[l]; share < minRate {
				minRate = share
			}
		}
		hops = len(route)
	}
	for t := 0; t < tg.N(); t++ {
		a := pl.Node(int32(t))
		for i := tg.Xadj[t]; i < tg.Xadj[t+1]; i++ {
			b := pl.Node(tg.Adj[i])
			if a == b {
				continue
			}
			minRate = math.Inf(1)
			n := routes(int(a), int(b), visit)
			bytes := float64(tg.EdgeWeight(int(i))) * bytesPerUnit / float64(n)
			times[i] = p.latency(hops, diam) + bytes/minRate
		}
	}
	return times
}

// staticTimes is messageTimes on static routing: each message takes
// its one route from topo.Route, and a link's load is the number of
// messages crossing it (exact as a float below 2^53 messages).
func staticTimes(tg *graph.Graph, topo torus.Topology, pl *metrics.Placement, bytesPerUnit float64, p Params) []float64 {
	load := make([]float64, topo.Links())
	var route []int32
	for t := 0; t < tg.N(); t++ {
		a := pl.Node(int32(t))
		for i := tg.Xadj[t]; i < tg.Xadj[t+1]; i++ {
			b := pl.Node(tg.Adj[i])
			if a == b {
				continue
			}
			route = topo.Route(int(a), int(b), route[:0])
			for _, l := range route {
				load[l]++
			}
		}
	}
	static := func(a, b int, fn func(route []int32)) int {
		route = topo.Route(a, b, route[:0])
		fn(route)
		return 1
	}
	return messageTimes(tg, topo, pl, load, static, bytesPerUnit, p)
}

// CommOnly simulates the communication-only application: every
// directed inter-node task message is injected at time zero and the
// application finishes when the slowest message does (§IV-C: "all the
// transfers are initialized at the same time ... the total execution
// time of this application is equal to its communication time").
// bytesPerUnit scales task-graph volumes to bytes (the paper scales
// cage15 by 4K and rgg by 256K).
func CommOnly(tg *graph.Graph, topo torus.Topology, pl *metrics.Placement, bytesPerUnit float64, p Params) Result {
	p = p.withDefaults()
	return slowest(staticTimes(tg, topo, pl, bytesPerUnit, p), p)
}

// slowest is the communication-only application's finish: its slowest
// message times one noise draw.
func slowest(times []float64, p Params) Result {
	rng := rand.New(rand.NewSource(p.Seed))
	worst := 0.0
	for _, tm := range times {
		if tm > worst {
			worst = tm
		}
	}
	return Result{Seconds: worst * noise(rng, p.NoiseSigma)}
}

// SpMV simulates iters iterations of a 1D row-wise SpMV. The kernel
// is latency-bound (§IV-D): on the critical rank, an iteration pays
// the per-message CPU/MPI overhead for every post and receive, the
// hop-dependent network latency of each incoming message (small
// eager-protocol receives complete serially on the progress engine,
// so dilations accumulate — this is why TH and AMC correlate with the
// measured time in the paper's regression), and the contention-shared
// transfer time of its slowest incoming message; the balanced compute
// phase follows.
func SpMV(tg *graph.Graph, topo torus.Topology, pl *metrics.Placement, iters int, p Params) Result {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	times := staticTimes(tg, topo, pl, 8, p)
	diam := topo.Diameter()

	// Per-rank: message counts (posts + receives), summed incoming
	// latencies, and slowest incoming bandwidth term.
	msgs := make([]int64, tg.N())
	latSum := make([]float64, tg.N())
	worstBW := make([]float64, tg.N())
	for t := 0; t < tg.N(); t++ {
		a := pl.Node(int32(t))
		for i := tg.Xadj[t]; i < tg.Xadj[t+1]; i++ {
			u := tg.Adj[i]
			b := pl.Node(u)
			if a == b {
				continue
			}
			msgs[t]++
			msgs[u]++
			lat := p.latency(topo.HopDist(int(a), int(b)), diam)
			latSum[u] += lat
			if bw := times[i] - lat; bw > worstBW[u] {
				worstBW[u] = bw
			}
		}
	}
	commCritical := 0.0
	for t := 0; t < tg.N(); t++ {
		c := float64(msgs[t])*p.PerMessageOverhead + latSum[t] + worstBW[t]
		if c > commCritical {
			commCritical = c
		}
	}
	var maxLoad int64
	for t := 0; t < tg.N(); t++ {
		if l := tg.VertexWeight(t); l > maxLoad {
			maxLoad = l
		}
	}
	iter := commCritical + float64(maxLoad)/p.ComputeRate
	return Result{Seconds: float64(iters) * iter * noise(rng, p.NoiseSigma)}
}

// noise returns a multiplicative factor 1+sigma*z clamped to stay
// positive.
func noise(rng *rand.Rand, sigma float64) float64 {
	f := 1 + sigma*rng.NormFloat64()
	if f < 0.5 {
		f = 0.5
	}
	return f
}

// Repeat runs sim count times with distinct seeds and returns the
// mean and standard deviation, the protocol of §IV-C/§IV-D ("the
// execution is repeated 5 times to reduce the noise"). The
// repetitions run concurrently — each gets its own seed and the
// moments are accumulated in index order, so the result is identical
// to a serial run. sim must be safe for concurrent invocation (the
// simulators in this package are: they only read their inputs).
func Repeat(count int, baseSeed int64, sim func(seed int64) float64) (mean, std float64) {
	if count <= 0 {
		return 0, 0
	}
	xs := make([]float64, count)
	_ = parallel.ForEach(count, 0, func(i int) error {
		xs[i] = sim(baseSeed + int64(i)*7919)
		return nil
	})
	for _, x := range xs {
		mean += x
	}
	mean /= float64(count)
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(count))
	return mean, std
}
