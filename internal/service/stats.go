package service

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	topomap "repro"
)

// Endpoint labels of the solving endpoints — the keys of the
// per-endpoint latency rings and the `endpoint` label values on
// /metrics.
const (
	endpointMap       = "map"
	endpointBatch     = "batch"
	endpointPortfolio = "portfolio"
	endpointRemap     = "remap"
)

var solveEndpoints = []string{endpointMap, endpointBatch, endpointPortfolio, endpointRemap}

// Protocol labels of the per-protocol request counters: every solving
// request is either a /v1 JSON envelope or a /v2 binary frame.
const (
	protoJSONLabel   = "json"
	protoBinaryLabel = "binary"
)

// stats holds the service's live counters: monotonically increasing
// request/error/timeout counts (lock-free atomics on the hot path),
// latency quantile rings — one combined, one per solving endpoint —
// and the fixed-bucket histograms /metrics exposes per endpoint and
// per solve stage.
type stats struct {
	requests            atomic.Int64
	batchRequests       atomic.Int64
	portfolioRequests   atomic.Int64
	portfolioCandidates atomic.Int64
	portfolioSkipped    atomic.Int64
	remapRequests       atomic.Int64
	remapWarm           atomic.Int64
	remapFallbacks      atomic.Int64
	remapPairsReused    atomic.Int64
	remapPairsTotal     atomic.Int64
	errors              atomic.Int64
	timeouts            atomic.Int64
	solvePanics         atomic.Int64 // solves whose panic was recovered into a 500
	inflight            atomic.Int64

	// Per-protocol request counters: how much of the solving traffic
	// arrives as /v1 JSON envelopes vs /v2 binary frames.
	protoJSON   atomic.Int64
	protoBinary atomic.Int64

	all      latRing
	endpoint map[string]*latRing // fixed keys, read-only after newStats

	reqHist   *histogramVec // per-endpoint request duration, seconds
	stageHist *histogramVec // per-stage solve duration, seconds

	// Heterogeneous-solve observability: the makespan distribution of
	// completed solves (load/speed units) and the load imbalance of
	// the most recent one (Float64bits, so the gauge stays an atomic).
	makespanHist  *histogram
	lastImbalance atomic.Uint64
}

// latencyWindow bounds each quantile ring: big enough for stable tail
// estimates, small enough that /statusz snapshots stay cheap.
const latencyWindow = 2048

// latRing is one fixed ring of recent latencies (milliseconds) from
// which /statusz computes p50/p90/p99.
type latRing struct {
	mu  sync.Mutex
	lat []float64
	pos int
	n   int // filled entries, <= len(lat)
}

func newLatRing() *latRing { return &latRing{lat: make([]float64, latencyWindow)} }

func (r *latRing) observe(ms float64) {
	r.mu.Lock()
	r.lat[r.pos] = ms
	r.pos = (r.pos + 1) % len(r.lat)
	if r.n < len(r.lat) {
		r.n++
	}
	r.mu.Unlock()
}

// quantiles returns the p50/p90/p99 of the recorded window (zeros
// when nothing completed yet).
func (r *latRing) quantiles() (p50, p90, p99 float64, samples int) {
	r.mu.Lock()
	snap := append([]float64(nil), r.lat[:r.n]...)
	r.mu.Unlock()
	if len(snap) == 0 {
		return 0, 0, 0, 0
	}
	sort.Float64s(snap)
	at := func(q float64) float64 {
		i := int(q * float64(len(snap)-1))
		return snap[i]
	}
	return at(0.50), at(0.90), at(0.99), len(snap)
}

func newStats() *stats {
	s := &stats{
		all:          latRing{lat: make([]float64, latencyWindow)},
		endpoint:     make(map[string]*latRing, len(solveEndpoints)),
		reqHist:      newHistogramVec(solveEndpoints...),
		stageHist:    newHistogramVec(),
		makespanHist: newHistogramWith(makespanBuckets),
	}
	for _, e := range solveEndpoints {
		s.endpoint[e] = newLatRing()
	}
	return s
}

// observe records one completed request's latency against the
// combined ring, the endpoint's ring, and the endpoint's histogram.
func (s *stats) observe(endpoint string, ms float64) {
	s.all.observe(ms)
	if r := s.endpoint[endpoint]; r != nil {
		r.observe(ms)
	}
	s.reqHist.get(endpoint).observe(ms / 1e3)
}

// observeSolve feeds one finished solve into the per-stage histograms
// (when it was traced) and its load summary into the makespan
// histogram and the latest-imbalance gauge. Solves that predate the
// load metric (or failed to compute one) report a zero makespan and
// skip the latter.
func (s *stats) observeSolve(res *topomap.MapResult) {
	for _, st := range res.Trace.Stages() {
		s.stageHist.get(st.Name).observe(st.DurMS / 1e3)
	}
	if res.Metrics.Makespan <= 0 {
		return
	}
	s.makespanHist.observe(res.Metrics.Makespan)
	s.lastImbalance.Store(math.Float64bits(res.Metrics.LoadImbalance))
}
