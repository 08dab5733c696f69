// Package service is the resident mapping service behind cmd/mapd:
// the paper's pitch is that high-quality topology-aware mapping is
// fast enough to run at job-launch time inside the resource manager,
// and the natural production shape of that is a daemon, not a batch
// CLI. The package defines the JSON wire protocol (map, batch,
// mapper-capability and status payloads), builds topologies and
// allocations from wire specs, and serves requests through a bounded
// worker pool against an LRU cache of Engines keyed by the canonical
// (topology, allocation) fingerprint — so repeated jobs on the same
// partition skip the route-state rebuild that dominates a cold
// request.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	topomap "repro"
	"repro/internal/ds"
	"repro/internal/graph"
	"repro/internal/registry"
	"repro/internal/trace"
)

// TaskGraphSpec is the wire form of a task graph: n tasks, a directed
// weighted edge list (the same "src dst volume" triples the CLI's
// -graph files carry), optionally one compute load per task for
// heterogeneous-processor jobs, and optionally one 2D/3D coordinate
// row per task for the geometric mappers. An absent Loads field — or
// an all-ones one, which canonicalizes to absent — means unit loads;
// an absent Coords field means a coordinate-free graph.
//
// Edges is the bulk of a /v1 body, so it is an EdgeList: its canonical
// shape decodes without reflection, everything else through
// encoding/json exactly as a [][3]int64 field would. The other fields
// decode through encoding/json, and encoding is encoding/json's
// throughout.
type TaskGraphSpec struct {
	N      int         `json:"n"`
	Edges  EdgeList    `json:"edges"`
	Loads  []int64     `json:"loads,omitempty"`
	Coords [][]float64 `json:"coords,omitempty"`
}

// EdgeList is the wire form of a task graph's edges: one
// [src, dst, volume] triple per directed edge. It decodes exactly as
// its underlying [][3]int64 does under encoding/json — the same
// accepted inputs, values and error text — but faster on the shape
// every client sends.
//
// The canonical shape, an array of three-integer arrays with any JSON
// whitespace between tokens, is scanned straight into one slice sized
// once from the bytes. Every other shape — null, a short or long
// triple, a fraction, an exponent, an integer outside int64, a string
// — goes to json.Unmarshal on the same bytes into the underlying type,
// so encoding/json stays the only definition of what an edge list is
// (FuzzEdgeList holds the two paths equal). The target is written only
// once the scan succeeds, and then into its own array when that has
// room, as encoding/json does, so the fallback sees it as
// encoding/json would have, repeated keys and reused slices included.
// One difference is encoding/json's own: it stops a decode at an
// Unmarshaler's error but decodes on past a plain field's type error,
// so in a body with several bad fields the error it reports can be
// another one.
//
// The slice is sized from the count of '[' bytes, capped at
// len(b)/8+1 edges, the most a canonical array of that length holds
// ("[0,1,1]," is 8 bytes); without the cap, '[' runs inside a string
// could reserve many times the body's size before the scan fails.
//
// EdgeList has no MarshalJSON on purpose: encoding/json re-scans a
// Marshaler's output to compact it, which measured slower than its
// reflective encoder of the same slice.
type EdgeList [][3]int64

// UnmarshalJSON implements json.Unmarshaler; see EdgeList.
func (e *EdgeList) UnmarshalJSON(b []byte) error {
	edges, ok := scanEdges(b)
	switch {
	case !ok:
		return json.Unmarshal(b, (*[][3]int64)(e))
	case len(edges) > 0 && len(edges) <= cap(*e):
		// encoding/json decodes a non-empty array into the target's
		// own array when it has room and keeps what lies past the new
		// length, which a later repeated key can expose again.
		*e = append((*e)[:0], edges...)
	default:
		*e = edges
	}
	return nil
}

// edgeCapacity is the number of edges scanEdges reserves for b: one
// per '[' after the outer one, never more than a canonical array of
// len(b) bytes can hold.
func edgeCapacity(b []byte) int {
	return max(0, min(bytes.Count(b, []byte{'['})-1, len(b)/8+1))
}

// scanEdges parses b if it is a canonical edge list, reporting false
// on anything else.
func scanEdges(b []byte) (EdgeList, bool) {
	s := edgeScanner{b: b}
	if !s.next('[') {
		return nil, false
	}
	out := make(EdgeList, 0, edgeCapacity(b))
	if s.next(']') {
		return out, s.end()
	}
	for {
		var t [3]int64
		if !s.next('[') {
			return nil, false
		}
		for k := range t {
			if k > 0 && !s.next(',') {
				return nil, false
			}
			v, ok := s.int()
			if !ok {
				return nil, false
			}
			t[k] = v
		}
		if !s.next(']') {
			return nil, false
		}
		out = append(out, t)
		if s.next(']') {
			return out, s.end()
		}
		if !s.next(',') {
			return nil, false
		}
	}
}

// edgeScanner walks the canonical edge-list grammar over b.
type edgeScanner struct {
	b []byte
	i int
}

func (s *edgeScanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next consumes c after optional whitespace, reporting whether it was
// there.
func (s *edgeScanner) next(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace remains.
func (s *edgeScanner) end() bool {
	s.space()
	return s.i == len(s.b)
}

// int consumes a JSON integer that fits int64, after optional
// whitespace; overflow reports false. A fraction or an exponent stops
// the digits at a byte the grammar rejects next. A leading zero cannot
// reach a decoder that encoding/json calls, but a direct call gets
// encoding/json's syntax error for it.
func (s *edgeScanner) int() (int64, bool) {
	s.space()
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		if i-start == 19 {
			return 0, false // 20 digits without a leading zero exceed int64
		}
		u = u*10 + uint64(b[i]-'0')
	}
	switch {
	case i == start, b[start] == '0' && i-start > 1:
		return 0, false
	case u > math.MaxInt64 && !(neg && u == math.MaxInt64+1):
		return 0, false
	}
	s.i = i
	if neg {
		return -int64(u), true // u == 1<<63 wraps to math.MinInt64
	}
	return int64(u), true
}

// maxTasks bounds wire task graphs: n is a bare integer whose cost
// (vertex arrays, grouping) is unrelated to the request's byte size.
const maxTasks = 1 << 20

// Build constructs the task graph (parallel edges merged, self loops
// dropped, unit task weights unless Loads says otherwise).
func (t TaskGraphSpec) Build() (*topomap.TaskGraph, error) {
	if t.N <= 0 {
		return nil, fmt.Errorf("tasks: need n > 0, got %d", t.N)
	}
	if t.N > maxTasks {
		return nil, fmt.Errorf("tasks: n=%d exceeds the %d-task service limit", t.N, maxTasks)
	}
	// Every /v1 request builds its graph, memo hits included (the memo
	// key folds its digest), so the edges stage straight into pooled
	// triples, as taskGraphFromCSR does for /v2 frames.
	tri := binArena.Edges(len(t.Edges))
	defer binArena.PutEdges(tri)
	cnt := 0
	for i, e := range t.Edges {
		src, dst, vol := e[0], e[1], e[2]
		if src < 0 || src >= int64(t.N) || dst < 0 || dst >= int64(t.N) {
			return nil, fmt.Errorf("tasks: edge %d endpoint out of [0,%d)", i, t.N)
		}
		if vol <= 0 {
			return nil, fmt.Errorf("tasks: edge %d has volume %d", i, vol)
		}
		if src == dst {
			continue // self loop
		}
		tri[cnt] = ds.EdgeTriple{U: int32(src), V: int32(dst), W: vol}
		cnt++
	}
	tg := &topomap.TaskGraph{G: graph.FromTriples(t.N, tri[:cnt], nil), K: t.N}
	// Unit loads canonicalize to the absent form, so the graph digest,
	// the solve memo and the binary sections all see one encoding.
	if t.Loads != nil {
		if err := tg.SetLoads(t.Loads); err != nil {
			return nil, fmt.Errorf("tasks: %w", err)
		}
	}
	if t.Coords != nil {
		if len(t.Coords) != t.N {
			return nil, fmt.Errorf("tasks: %d coordinate rows for %d tasks", len(t.Coords), t.N)
		}
		dim := len(t.Coords[0])
		if dim != 2 && dim != 3 {
			return nil, fmt.Errorf("tasks: coordinate rows have %d values, want 2 or 3", dim)
		}
		flat := make([]float64, 0, t.N*dim)
		for i, row := range t.Coords {
			if len(row) != dim {
				return nil, fmt.Errorf("tasks: coordinate row %d has %d values, row 0 has %d", i, len(row), dim)
			}
			flat = append(flat, row...)
		}
		// SetCoords validates finiteness; there is no unit-coordinate
		// degeneracy to canonicalize — coordinates are present or not.
		if err := tg.SetCoords(dim, flat); err != nil {
			return nil, fmt.Errorf("tasks: %w", err)
		}
	}
	return tg, nil
}

// MapRequest is one mapping job: network, allocation, task graph,
// mapper, and per-request options. TimeoutMS (0 = the server default)
// bounds the solve; Rankfile additionally asks for the Cray-style
// MPICH_RANK_ORDER text realizing the placement. Parallelism asks for
// that many solver workers for this request (0/1 = serial); the
// server clamps it to its max_parallelism cap and charges that many
// worker slots, and the placement is byte-identical at any value —
// only the latency changes.
type MapRequest struct {
	Topology    TopologySpec   `json:"topology"`
	Allocation  AllocationSpec `json:"allocation"`
	Tasks       TaskGraphSpec  `json:"tasks"`
	Mapper      string         `json:"mapper"`
	Seed        int64          `json:"seed"`
	Refine      bool           `json:"refine,omitempty"`
	FineRefine  bool           `json:"fine_refine,omitempty"`
	TimeoutMS   int64          `json:"timeout_ms,omitempty"`
	Rankfile    bool           `json:"rankfile,omitempty"`
	Parallelism int            `json:"parallelism,omitempty"`
	// Trace asks for the solve's stage timeline in the response. The
	// server traces every solve for its own histograms regardless; this
	// flag only controls whether the breakdown travels back.
	Trace bool `json:"trace,omitempty"`
	// Balance runs the makespan-aware load-repair stage after mapping
	// (see topomap.Solve.Balance); allocations with non-unit speeds get
	// the stage automatically.
	Balance bool `json:"balance,omitempty"`
}

// Metrics is the wire form of the mapping metrics (§II-C): the
// library's MapMetrics itself, whose JSON names are the objective
// metric names.
type Metrics = topomap.MapMetrics

// MapResponse is the outcome of one mapping job. NodeOf values are
// network node ids; AllocNodes reports the allocated node set in
// allocation order (essential when the server generated the
// allocation from a sparse spec). CacheHit reports whether the
// engine's routing state was reused from the cache.
type MapResponse struct {
	Mapper      string  `json:"mapper"`
	GroupOf     []int32 `json:"group_of"`
	NodeOf      []int32 `json:"node_of"`
	AllocNodes  []int32 `json:"alloc_nodes"`
	Metrics     Metrics `json:"metrics"`
	FineWHGain  int64   `json:"fine_wh_gain,omitempty"`
	FineVolGain int64   `json:"fine_vol_gain,omitempty"`
	Rankfile    string  `json:"rankfile,omitempty"`
	CacheHit    bool    `json:"cache_hit"`
	ElapsedMS   float64 `json:"elapsed_ms,omitempty"`
	// Fingerprint is the content handle of this result in the server's
	// recent-result cache; POST /v1/remap accepts it as the previous
	// mapping of an incremental remap. Empty on endpoints that do not
	// feed the result cache.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Trace is the solve's stage timeline (wall time, workers,
	// per-stage counters), present when the request asked for it.
	Trace []trace.Stage `json:"trace,omitempty"`
}

// BatchItem is one mapper run of a batch; the batch's topology,
// allocation and task graph are shared. Trace asks for that item's
// stage timeline in its result.
type BatchItem struct {
	Mapper     string `json:"mapper"`
	Seed       int64  `json:"seed"`
	Refine     bool   `json:"refine,omitempty"`
	FineRefine bool   `json:"fine_refine,omitempty"`
	Trace      bool   `json:"trace,omitempty"`
	Balance    bool   `json:"balance,omitempty"`
}

// BatchRequest fans several mapper runs out against one shared
// engine — the sweep shape of the paper's figures. Parallelism gives
// every item that many solver workers (items still run one after
// another); the batch occupies that many worker slots for its whole
// duration.
type BatchRequest struct {
	Topology    TopologySpec   `json:"topology"`
	Allocation  AllocationSpec `json:"allocation"`
	Tasks       TaskGraphSpec  `json:"tasks"`
	Requests    []BatchItem    `json:"requests"`
	TimeoutMS   int64          `json:"timeout_ms,omitempty"`
	Parallelism int            `json:"parallelism,omitempty"`
}

// BatchResponse carries the per-item results in request order.
type BatchResponse struct {
	Results   []MapResponse `json:"results"`
	CacheHit  bool          `json:"cache_hit"`
	ElapsedMS float64       `json:"elapsed_ms"`
}

// PortfolioRequest races a candidate set against one engine and
// selects by a declared objective (POST /v1/portfolio). Candidates
// are the library's serializable Solve specs verbatim — the wire no
// longer mirrors option fields — and must differ in (mapper, seed).
// An empty candidate list expands server-side to every registered
// mapper compatible with the topology, each at Seed. The objective's
// zero value minimizes weighted hops. Parallelism is the portfolio's
// worker-pool width; the request occupies that many worker slots.
// Per-candidate workers must stay unset on the wire — the pool is the
// server's to account for.
type PortfolioRequest struct {
	Topology    TopologySpec      `json:"topology"`
	Allocation  AllocationSpec    `json:"allocation"`
	Tasks       TaskGraphSpec     `json:"tasks"`
	Candidates  []topomap.Solve   `json:"candidates,omitempty"`
	Seed        int64             `json:"seed,omitempty"`
	Objective   topomap.Objective `json:"objective,omitempty"`
	Sim         *topomap.SimSpec  `json:"sim,omitempty"`
	TimeoutMS   int64             `json:"timeout_ms,omitempty"`
	Parallelism int               `json:"parallelism,omitempty"`
	Rankfile    bool              `json:"rankfile,omitempty"`
}

// Validate checks the server's own rules for a portfolio request: its
// candidate cap, and candidate workers left to the server. The
// library's PortfolioRequest.Validate checks the rest before the race
// takes a worker slot.
func (p *PortfolioRequest) Validate(maxCandidates int) error {
	if len(p.Candidates) > maxCandidates {
		return fmt.Errorf("portfolio: %d candidates exceed the server's cap of %d", len(p.Candidates), maxCandidates)
	}
	for i, c := range p.Candidates {
		if c.Workers != 0 {
			return fmt.Errorf("portfolio: candidate %d sets workers; per-candidate parallelism is server-controlled, use the portfolio-level parallelism field", i)
		}
	}
	return nil
}

// engineRequest lowers the wire request onto the library form,
// uppercasing mapper names the way every other endpoint does. Workers
// stay unset: the handler sets them to its grant.
func (p *PortfolioRequest) engineRequest(tg *topomap.TaskGraph) *topomap.PortfolioRequest {
	cands := make([]topomap.Solve, len(p.Candidates))
	for i, c := range p.Candidates {
		c.Mapper = topomap.Mapper(strings.ToUpper(string(c.Mapper)))
		cands[i] = c
	}
	return &topomap.PortfolioRequest{
		Tasks:      tg,
		Candidates: cands,
		Seed:       p.Seed,
		Objective:  p.Objective,
		Sim:        p.Sim,
	}
}

// LeaderboardEntry is one candidate's line in the portfolio response.
// Metrics is omitted for candidates the deadline skipped.
type LeaderboardEntry struct {
	Index      int           `json:"index"`
	Solve      topomap.Solve `json:"solve"`
	Score      float64       `json:"score"`
	Metrics    *Metrics      `json:"metrics,omitempty"`
	SimSeconds float64       `json:"sim_seconds,omitempty"`
	Skipped    bool          `json:"skipped,omitempty"`
}

// PortfolioResponse reports the winning candidate (index into the
// request's expanded candidate list, full result in Best) and the
// per-candidate leaderboard: completed candidates in ascending score
// order, then deadline-skipped ones.
type PortfolioResponse struct {
	Winner      int                `json:"winner"`
	Best        MapResponse        `json:"best"`
	Leaderboard []LeaderboardEntry `json:"leaderboard"`
	Skipped     int                `json:"skipped,omitempty"`
	CacheHit    bool               `json:"cache_hit"`
	ElapsedMS   float64            `json:"elapsed_ms"`
}

// RemapRequest is one incremental remap (POST /v1/remap): the
// previous mapping is referenced by the fingerprint a /v1/map or
// /v1/remap response returned — the delta travels, the task graph and
// placement do not. Solve carries the warm pipeline's knobs and the
// cold fallback's spec (RemapSpec.Solve verbatim, except Workers and
// TimeoutMS, which are server-controlled: Parallelism asks for solver
// workers and TimeoutMS bounds the whole remap, warm and fallback
// together). An unknown or evicted fingerprint costs a 404; clients
// recover by re-solving through /v1/map.
type RemapRequest struct {
	Fingerprint    string                  `json:"fingerprint"`
	Delta          topomap.AllocationDelta `json:"delta"`
	Solve          topomap.Solve           `json:"solve,omitempty"`
	Objective      topomap.Objective       `json:"objective,omitempty"`
	FenceThreshold float64                 `json:"fence_threshold,omitempty"`
	TimeoutMS      int64                   `json:"timeout_ms,omitempty"`
	Rankfile       bool                    `json:"rankfile,omitempty"`
	Parallelism    int                     `json:"parallelism,omitempty"`
}

// Validate checks the server's own rules for a remap request: a
// fingerprint, a non-empty delta, and workers and timeout left to the
// server. The library's RemapSpec.Validate checks the rest before the
// remap takes a worker slot.
func (r *RemapRequest) Validate() error {
	if r.Fingerprint == "" {
		return fmt.Errorf("remap: missing fingerprint; solve through /v1/map first and present its fingerprint")
	}
	if r.Delta.Empty() {
		return fmt.Errorf("remap: empty delta; a remap needs a change")
	}
	if r.Solve.Workers != 0 {
		return fmt.Errorf("remap: solve.workers is server-controlled, use the parallelism field")
	}
	if r.Solve.TimeoutMS != 0 {
		return fmt.Errorf("remap: solve.timeout_ms is server-controlled, use the request-level timeout_ms field")
	}
	return nil
}

// Spec lowers the wire request onto the engine's RemapSpec, clamped
// to the server's worker grant.
func (r *RemapRequest) Spec(workers int) topomap.RemapSpec {
	s := r.Solve
	s.Mapper = topomap.Mapper(strings.ToUpper(string(s.Mapper)))
	s.Workers = workers
	return topomap.RemapSpec{Solve: s, Objective: r.Objective, FenceThreshold: r.FenceThreshold}
}

// RemapResponse is the outcome of an incremental remap: the winning
// mapping (with a fresh fingerprint, so deltas chain) plus the
// warm-vs-cold accounting. CacheHit is always true — by construction
// the route state was patched from a cached result, never rebuilt.
type RemapResponse struct {
	MapResponse
	// Warm reports that the warm-started result won; false means the
	// quality fence fell back to a cold solve and the cold result won.
	Warm bool `json:"warm"`
	// FenceTripped reports that the warm result regressed past the
	// threshold and the cold fallback ran.
	FenceTripped bool `json:"fence_tripped"`
	// PrevScore, WarmScore and ColdScore are the objective values of
	// the previous mapping, the warm result, and the cold fallback
	// (meaningful only when FenceTripped).
	PrevScore float64 `json:"prev_score"`
	WarmScore float64 `json:"warm_score"`
	ColdScore float64 `json:"cold_score,omitempty"`
	// PairsReused of PairsTotal route-cache pairs survived the delta
	// verbatim.
	PairsReused int `json:"pairs_reused"`
	PairsTotal  int `json:"pairs_total"`
	// MigratedTasks counts the tasks the delta stranded and the greedy
	// placement moved.
	MigratedTasks int `json:"migrated_tasks"`
}

// MappersResponse lists every registered mapper with its capability
// flags — the registry served over the wire.
type MappersResponse struct {
	Mappers []registry.Info `json:"mappers"`
}

// Status is the /statusz payload: live counters of the running
// service.
type Status struct {
	UptimeSeconds  float64 `json:"uptime_seconds"`
	Requests       int64   `json:"requests"`
	BatchRequests  int64   `json:"batch_requests"`
	Errors         int64   `json:"errors"`
	Timeouts       int64   `json:"timeouts"`
	SolvePanics    int64   `json:"solve_panics"` // recovered into a 500; each also counts in Errors
	InFlight       int64   `json:"in_flight"`
	Workers        int     `json:"workers"`
	MaxParallelism int     `json:"max_parallelism"`

	// Portfolio counters: requests served by /v1/portfolio, total
	// candidates solved on their behalf, and candidates deadlines cut
	// off before they finished.
	PortfolioRequests   int64 `json:"portfolio_requests"`
	PortfolioCandidates int64 `json:"portfolio_candidates"`
	PortfolioSkipped    int64 `json:"portfolio_skipped"`
	MaxCandidates       int   `json:"max_candidates"`

	// Remap counters: requests served by /v1/remap, how many the warm
	// path won, how many tripped the quality fence into a cold
	// fallback, and the cumulative route-cache pair reuse (reused over
	// total across every patch).
	RemapRequests    int64 `json:"remap_requests"`
	RemapWarm        int64 `json:"remap_warm"`
	RemapFallbacks   int64 `json:"remap_fallbacks"`
	RemapPairsReused int64 `json:"remap_pairs_reused"`
	RemapPairsTotal  int64 `json:"remap_pairs_total"`
	// Result cache occupancy and accounting: fingerprints /v1/remap
	// can currently resolve, the LRU's capacity, and the lookup
	// hit/miss/eviction counters (a miss forces the client back to a
	// full /v1/map solve).
	ResultEntries   int   `json:"result_entries"`
	ResultCapacity  int   `json:"result_capacity"`
	ResultHits      int64 `json:"result_hits"`
	ResultMisses    int64 `json:"result_misses"`
	ResultEvictions int64 `json:"result_evictions"`
	// ResultHitsByAge / ResultEvictionsByAge break the result-cache
	// counters down by entry age at the event (buckets lt_1s … ge_10m):
	// young evictions mean the cache thrashes below the remap interval,
	// old hits mean retention is carrying long-lived allocations.
	ResultHitsByAge      map[string]int64 `json:"result_hits_by_age"`
	ResultEvictionsByAge map[string]int64 `json:"result_evictions_by_age"`
	// Solve-memo accounting: map requests answered straight from the
	// result cache because an identical request was solved before
	// (solves are deterministic). Misses are requests that solved.
	SolveMemoHits   int64 `json:"solve_memo_hits"`
	SolveMemoMisses int64 `json:"solve_memo_misses"`

	// ProtocolRequests splits the solving traffic by envelope: "json"
	// (/v1) vs "binary" (/v2 frames).
	ProtocolRequests map[string]int64 `json:"protocol_requests"`
	// Intern-table accounting of the binary protocol's 16-byte section
	// references: hits resolve without the section traveling, a miss
	// costs the client one resend round-trip (counted in
	// InternResends when the full section arrives back).
	InternEntries   int   `json:"intern_entries"`
	InternCapacity  int   `json:"intern_capacity"`
	InternHits      int64 `json:"intern_hits"`
	InternMisses    int64 `json:"intern_misses"`
	InternEvictions int64 `json:"intern_evictions"`
	InternResends   int64 `json:"intern_resends"`

	CacheHits      int64   `json:"cache_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	CacheEvictions int64   `json:"cache_evictions"`
	CacheEntries   int     `json:"cache_entries"`
	CacheCapacity  int     `json:"cache_capacity"`
	LatencyP50MS   float64 `json:"latency_p50_ms"`
	LatencyP90MS   float64 `json:"latency_p90_ms"`
	LatencyP99MS   float64 `json:"latency_p99_ms"`
	LatencySamples int     `json:"latency_samples"`
	// EndpointLatency breaks the quantiles down per solving endpoint
	// (map, batch, portfolio, remap); the flat fields above stay the
	// combined view.
	EndpointLatency map[string]LatencySummary `json:"endpoint_latency"`
	Mappers         int                       `json:"mappers"`

	// Heterogeneous-solve observability: how many completed solves
	// recorded a makespan, their cumulative makespan (load/speed
	// units), and the load imbalance of the most recent solve.
	MakespanSolves int64   `json:"makespan_solves"`
	MakespanSum    float64 `json:"makespan_sum"`
	LoadImbalance  float64 `json:"load_imbalance"`

	// Build identity of the running binary: the Go toolchain and the
	// VCS revision it was built from ("unknown" outside a checkout).
	GoVersion   string `json:"go_version"`
	VCSRevision string `json:"vcs_revision"`
}

// LatencySummary is one endpoint's recent-latency quantile block in
// the /statusz payload.
type LatencySummary struct {
	P50MS   float64 `json:"p50_ms"`
	P90MS   float64 `json:"p90_ms"`
	P99MS   float64 `json:"p99_ms"`
	Samples int     `json:"samples"`
}

// ErrorResponse is the uniform error payload of every non-2xx
// response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// writeJSON encodes v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// writeError encodes an ErrorResponse with the given status code.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

// readJSON decodes a request body into v, rejecting unknown fields
// (typos in a wire payload must fail loudly, not map with defaults),
// anything but whitespace after the request object (a second object
// would otherwise be dropped silently) and bodies over limit bytes.
func readJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	off := dec.InputOffset()
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return fmt.Errorf("decode request: trailing data after the request object at offset %d", off)
	}
	return nil
}

// jsonCodec is the /v1 codec: JSON envelopes in and out. A request's
// specs become a job through TaskGraphSpec.Build and engineKey.
type jsonCodec struct{ s *Server }

func (jsonCodec) prefix() string                       { return "/v1" }
func (jsonCodec) protoCounter(st *stats) *atomic.Int64 { return &st.protoJSON }

// jsonJob starts a /v1 job from its wire specs: the task graph built,
// the engine key derived. The job's clock starts here, after the
// envelope decoded.
func jsonJob(ts TopologySpec, as AllocationSpec, tasks TaskGraphSpec) (*job, error) {
	j := &job{alloc: as, began: time.Now()}
	var err error
	if j.tasks, err = tasks.Build(); err != nil {
		return nil, err
	}
	if j.topo, j.engineKey, err = engineKey(ts, as); err != nil {
		return nil, err
	}
	return j, nil
}

func (c jsonCodec) decodeMap(w http.ResponseWriter, r *http.Request) (*job, error) {
	var req MapRequest
	if err := readJSON(w, r, c.s.cfg.MaxBodyBytes, &req); err != nil {
		return nil, err
	}
	j, err := jsonJob(req.Topology, req.Allocation, req.Tasks)
	if err != nil {
		return nil, err
	}
	j.digest = taskGraphDigest(j.tasks)
	j.solve = lowerSolve(req.Mapper, req.Seed, req.Refine, req.FineRefine, req.Trace, req.Balance)
	j.parallelism, j.timeoutMS = req.Parallelism, req.TimeoutMS
	j.rankfile, j.trace = req.Rankfile, req.Trace
	return j, nil
}

func (c jsonCodec) decodeBatch(w http.ResponseWriter, r *http.Request) (*job, error) {
	var req BatchRequest
	if err := readJSON(w, r, c.s.cfg.MaxBodyBytes, &req); err != nil {
		return nil, err
	}
	if len(req.Requests) == 0 {
		return nil, errEmptyBatch
	}
	j, err := jsonJob(req.Topology, req.Allocation, req.Tasks)
	if err != nil {
		return nil, err
	}
	j.items = make([]topomap.Solve, len(req.Requests))
	for i, it := range req.Requests {
		j.items[i] = lowerSolve(it.Mapper, it.Seed, it.Refine, it.FineRefine, it.Trace, it.Balance)
	}
	j.parallelism, j.timeoutMS = req.Parallelism, req.TimeoutMS
	return j, nil
}

func (c jsonCodec) decodeRemap(w http.ResponseWriter, r *http.Request) (*job, error) {
	req := new(RemapRequest)
	if err := readJSON(w, r, c.s.cfg.MaxBodyBytes, req); err != nil {
		return nil, err
	}
	return remapJob(req)
}

func (c jsonCodec) decodePortfolio(w http.ResponseWriter, r *http.Request) (*job, error) {
	req := new(PortfolioRequest)
	if err := readJSON(w, r, c.s.cfg.MaxBodyBytes, req); err != nil {
		return nil, err
	}
	if err := req.Validate(c.s.cfg.MaxPortfolioCandidates); err != nil {
		return nil, err
	}
	j, err := jsonJob(req.Topology, req.Allocation, req.Tasks)
	if err != nil {
		return nil, err
	}
	j.portfolio = req.engineRequest(j.tasks)
	j.parallelism, j.timeoutMS, j.rankfile = req.Parallelism, req.TimeoutMS, req.Rankfile
	return j, nil
}

func (jsonCodec) encodeMap(w http.ResponseWriter, out MapResponse) { writeJSON(w, http.StatusOK, out) }
func (jsonCodec) encodeBatch(w http.ResponseWriter, out BatchResponse) {
	writeJSON(w, http.StatusOK, out)
}
func (jsonCodec) encodeRemap(w http.ResponseWriter, out RemapResponse) {
	writeJSON(w, http.StatusOK, out)
}
func (jsonCodec) encodeError(w http.ResponseWriter, status int, _ byte, err error) {
	writeError(w, status, err)
}
