package service

// The protocol-neutral job model. Each wire protocol is a codec that
// decodes a request into a job and encodes either a result or a
// classified error; each job kind — map, batch, remap, portfolio —
// has exactly one handler, which owns everything in between: the
// counters and the request log, the solve memo, the engine lookup,
// worker-slot accounting, stage/result observation and the
// result-cache feed. A /v1 request and its /v2 twin run the same
// handler over the same job, so they produce the same result by
// construction.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	topomap "repro"
)

// job is one decoded solving request.
type job struct {
	// engineKey is the canonical engine cache key: the normalized
	// topology key joined with the allocation key. topo and alloc are
	// the specs the engine builds from on a cache miss.
	engineKey string
	topo      TopologySpec
	alloc     AllocationSpec
	tasks     *topomap.TaskGraph
	// digest is taskGraphDigest(tasks), taken when a /v1 map decodes
	// or carried from the /v2 intern entry; only the map handler reads
	// it, for the solve memo key and the result fingerprint.
	digest uint64

	solve     topomap.Solve             // map: the lowered solve
	items     []topomap.Solve           // batch: one lowered solve per item
	remap     *RemapRequest             // remap: the request
	portfolio *topomap.PortfolioRequest // portfolio: the lowered request

	parallelism int   // wire-level; the handler clamps it
	timeoutMS   int64 // 0 = the server default
	rankfile    bool  // render the rankfile into the result
	trace       bool  // echo the stage timeline
	// began is when the request's envelope finished decoding: the
	// origin of the elapsed_ms a response reports.
	began time.Time
}

// jobError is a classified request failure: its HTTP status and, for
// a /v2 intern miss, the bitmask of sections the client must resend.
// An unclassified error is the client's (400) unless a deadline or a
// disconnect caused it (see classify).
type jobError struct {
	status  int
	missing byte
	err     error
}

func (e *jobError) Error() string { return e.err.Error() }

// codec is one wire protocol at the edge of the job handlers.
type codec interface {
	// prefix is the protocol's route prefix, named in recovery hints.
	prefix() string
	// protoCounter is the protocol's share of the request counters.
	protoCounter(*stats) *atomic.Int64
	decodeMap(w http.ResponseWriter, r *http.Request) (*job, error)
	decodeBatch(w http.ResponseWriter, r *http.Request) (*job, error)
	decodeRemap(w http.ResponseWriter, r *http.Request) (*job, error)
	encodeMap(w http.ResponseWriter, out MapResponse)
	encodeBatch(w http.ResponseWriter, out BatchResponse)
	encodeRemap(w http.ResponseWriter, out RemapResponse)
	encodeError(w http.ResponseWriter, status int, missing byte, err error)
}

var errEmptyBatch = errors.New("batch: empty requests")

// remapJob checks the server's rules on a decoded remap request — from
// either codec — and wraps it as a job.
func remapJob(req *RemapRequest) (*job, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &job{
		remap: req, parallelism: req.Parallelism, timeoutMS: req.TimeoutMS,
		rankfile: req.Rankfile, trace: req.Solve.Trace, began: time.Now(),
	}, nil
}

// lowerSolve is the one lowering every wire endpoint shares: mapper
// names uppercased. Workers stay unset here; the handler sets them to
// its server-clamped grant so the engine's host-wide default cannot
// bypass the service's slot accounting.
func lowerSolve(mapper string, seed int64, refine, fineRefine, traced, balance bool) topomap.Solve {
	return topomap.Solve{
		Mapper:     topomap.Mapper(strings.ToUpper(mapper)),
		Seed:       seed,
		Refine:     refine,
		FineRefine: fineRefine,
		Trace:      traced,
		Balance:    balance,
	}
}

// validate runs the library's engine-free checks on a decoded job —
// the Validate its Engine entry point opens with — so a bad request is
// a 400 before it takes a worker slot or builds an engine.
func (j *job) validate() error {
	switch {
	case j.remap != nil:
		return j.remap.Spec(0).Validate()
	case j.portfolio != nil:
		return j.portfolio.Validate()
	case j.items != nil:
		for i, s := range j.items {
			if err := s.Validate(); err != nil {
				return fmt.Errorf("batch: request %d: %w", i, err)
			}
		}
		return nil
	}
	return j.solve.Validate()
}

// engineKey derives the engine cache key of a spec pair, returning the
// normalized topology the engine builds from.
func engineKey(ts TopologySpec, as AllocationSpec) (TopologySpec, string, error) {
	ts, err := ts.Normalize()
	if err != nil {
		return ts, "", err
	}
	allocKey, err := as.Key()
	if err != nil {
		return ts, "", err
	}
	return ts, ts.Key() + "|" + allocKey, nil
}

// engineFor resolves a job's engine through the LRU cache by its
// canonical key: a hit skips building the topology, the allocation
// and — the expensive part — the engine's pairwise routing state.
func (s *Server) engineFor(j *job) (*topomap.Engine, bool, error) {
	return s.cache.GetKeyed(j.engineKey, func() (*topomap.Engine, error) {
		net, err := j.topo.Build()
		if err != nil {
			return nil, err
		}
		a, err := j.alloc.Build(net)
		if err != nil {
			return nil, err
		}
		return topomap.NewEngine(net.Topo, a)
	})
}

// admit opens one solving request. A non-POST is refused with 405
// before anything is counted. Otherwise the request counts against its
// endpoint and protocol, joins the in-flight gauge, opens its log
// record, decodes into a job and validates it. The caller defers
// lg.end; a nil job means admit already wrote the error and closed the
// request.
func (s *Server) admit(c codec, w http.ResponseWriter, r *http.Request, endpoint string, requests *atomic.Int64,
	decode func(http.ResponseWriter, *http.Request) (*job, error)) (lg requestLog, j *job) {
	if r.Method != http.MethodPost {
		c.encodeError(w, http.StatusMethodNotAllowed, 0, errors.New("use POST"))
		return lg, nil
	}
	requests.Add(1)
	c.protoCounter(s.st).Add(1)
	s.st.inflight.Add(1)
	// The record travels by value: it stays on the handler's stack.
	lg = requestLog{
		s: s, c: c, id: s.reqID.Add(1), endpoint: endpoint,
		status: http.StatusOK, began: time.Now(),
	}
	j, err := decode(w, r)
	if err == nil {
		err = j.validate()
	}
	if err != nil {
		lg.error(w, err)
		lg.end()
		return lg, nil
	}
	return lg, j
}

// classify maps a failure to its HTTP status and intern-miss bitmask.
// Deadline expiry is a server-side timeout; a canceled context means
// the client went away (nobody reads the response) and must not
// inflate the timeout counter operators tune deadlines from. A mapper
// that returned a broken placement is the server's fault, not the
// client's.
func (s *Server) classify(err error) (status int, missing byte) {
	var je *jobError
	switch {
	case errors.As(err, &je):
		return je.status, je.missing
	case errors.Is(err, topomap.ErrMapperPlacement):
		return http.StatusInternalServerError, 0
	case errors.Is(err, context.DeadlineExceeded):
		s.st.timeouts.Add(1)
		return http.StatusGatewayTimeout, 0
	case errors.Is(err, context.Canceled):
		return 499, 0 // client closed request (nginx convention)
	}
	return http.StatusBadRequest, 0
}

// mapResponse assembles the protocol-neutral response of one finished
// solve — placement, metrics payload, rendered rankfile and trace
// echo. The JSON codec encodes it verbatim, the binary codec field for
// field into a result frame.
func mapResponse(res *topomap.MapResult, eng *topomap.Engine, hit, rankfile, traced bool, elapsed time.Duration, fp string) (MapResponse, error) {
	out := MapResponse{
		Mapper:      string(res.Mapper),
		GroupOf:     res.GroupOf,
		NodeOf:      res.NodeOf,
		AllocNodes:  eng.Allocation().Nodes,
		Metrics:     res.Metrics,
		FineWHGain:  res.FineWHGain,
		FineVolGain: res.FineVolGain,
		CacheHit:    hit,
		ElapsedMS:   float64(elapsed) / float64(time.Millisecond),
		Fingerprint: fp,
	}
	if rankfile {
		var sb strings.Builder
		if err := topomap.WriteRankOrder(&sb, res.Placement(), eng.Allocation()); err != nil {
			return out, err // already prefixed "rankfile:"
		}
		out.Rankfile = sb.String()
	}
	if traced {
		out.Trace = res.Trace.Stages()
	}
	return out, nil
}

// handleMap serves POST /v1/map and /v2/map: one mapping job.
func (s *Server) handleMap(c codec, w http.ResponseWriter, r *http.Request) {
	lg, j := s.admit(c, w, r, endpointMap, &s.st.requests, c.decodeMap)
	if j == nil {
		return
	}
	defer lg.end()
	lg.mapper = string(j.solve.Mapper)
	reply := func(res *topomap.MapResult, eng *topomap.Engine, hit bool, fp string) {
		out, err := mapResponse(res, eng, hit, j.rankfile, j.trace, time.Since(j.began), fp)
		if err != nil {
			lg.error(w, err)
			return
		}
		s.st.observe(endpointMap, out.ElapsedMS)
		c.encodeMap(w, out)
	}
	// Solve memo: an identical repeat request — solves are
	// deterministic — is answered from the result cache without
	// touching a worker slot; only response framing (rankfile, trace
	// echo) re-renders. Stage histograms count real solves only.
	memoKey := solveMemoKey(j.engineKey, j.solve, j.digest)
	if ent, ok := s.results.getReq(memoKey); ok {
		lg.cacheHit = true
		reply(ent.res, ent.eng, true, ent.fp)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(j.timeoutMS))
	defer cancel()
	workers := s.parallelism(j.parallelism)
	// The server traces every solve to feed its per-stage histograms
	// (tracing is a handful of clock reads; the mapping is
	// byte-identical either way); j.trace only decides whether the
	// breakdown travels back on the wire.
	sol := j.solve
	sol.Workers, sol.Trace = workers, true
	// The engine build — the expensive cold path — runs inside the
	// worker slots and under the deadline, like the solve itself.
	var eng *topomap.Engine
	var hit bool
	var res *topomap.MapResult
	err := s.solve(ctx, lg.id, workers, func(ctx context.Context) error {
		var err error
		eng, hit, err = s.engineFor(j)
		if err != nil {
			return err
		}
		res, err = eng.RunSolve(ctx, j.tasks, sol)
		return err
	})
	if err != nil {
		lg.error(w, err)
		return
	}
	lg.cacheHit = hit
	s.st.observeSolve(res)
	// Feed the result cache so a remap can pick this mapping up by
	// fingerprint when the allocation changes, and the solve memo so
	// a repeat of this job skips the solve.
	fp := resultFingerprint(eng, j.digest, res)
	s.results.putReq(memoKey, resultEntry{fp: fp, eng: eng, tasks: j.tasks, digest: j.digest, res: res})
	reply(res, eng, hit, fp)
}

// handleBatch serves POST /v1/map/batch and /v2/map/batch: several
// mapper runs against one shared engine.
func (s *Server) handleBatch(c codec, w http.ResponseWriter, r *http.Request) {
	lg, j := s.admit(c, w, r, endpointBatch, &s.st.batchRequests, c.decodeBatch)
	if j == nil {
		return
	}
	defer lg.end()
	workers := s.parallelism(j.parallelism)
	solves := make([]topomap.Solve, len(j.items))
	for i, sol := range j.items {
		sol.Workers = workers
		solves[i] = sol
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(j.timeoutMS))
	defer cancel()
	// A batch runs its items serially, each item solving with the
	// batch's `parallelism` workers, and occupies that many slots for
	// its whole duration — the pool's accounting stays exact, so a
	// stream of parallel batches cannot oversubscribe the host.
	// Clients that want cross-item parallelism issue parallel map
	// requests, which share the cached engine anyway.
	var eng *topomap.Engine
	var hit bool
	var results []*topomap.MapResult
	err := s.solve(ctx, lg.id, workers, func(ctx context.Context) error {
		var err error
		eng, hit, err = s.engineFor(j)
		if err != nil {
			return err
		}
		results, err = eng.RunBatch(ctx, j.tasks, solves, 1)
		return err
	})
	if err != nil {
		lg.error(w, err)
		return
	}
	lg.cacheHit = hit
	out := BatchResponse{
		Results:   make([]MapResponse, len(results)),
		CacheHit:  hit,
		ElapsedMS: float64(time.Since(j.began)) / float64(time.Millisecond),
	}
	for i, res := range results {
		s.st.observeSolve(res)
		// Items share one engine run: only the batch-level elapsed is
		// meaningful, so per-item elapsed and fingerprints are omitted.
		// Items trace only on request (a sweep's point is bulk
		// throughput), and traced items echo their timeline.
		item, err := mapResponse(res, eng, hit, false, res.Trace != nil, 0, "")
		if err != nil {
			lg.error(w, err)
			return
		}
		out.Results[i] = item
	}
	s.st.observe(endpointBatch, out.ElapsedMS)
	c.encodeBatch(w, out)
}

// handleRemap serves POST /v1/remap and /v2/remap: an incremental
// remap of a cached result onto a changed allocation. The previous
// mapping arrives as a fingerprint (404 when unknown or evicted — the
// client re-solves through the map endpoint); only the allocation
// delta travels. The engine patches its route cache, migrates
// stranded tasks, warm-starts refinement and guards the shortcut with
// the quality fence; the response carries a fresh fingerprint so
// follow-up deltas chain without re-solving.
func (s *Server) handleRemap(c codec, w http.ResponseWriter, r *http.Request) {
	lg, j := s.admit(c, w, r, endpointRemap, &s.st.remapRequests, c.decodeRemap)
	if j == nil {
		return
	}
	defer lg.end()
	req := j.remap
	lg.mapper = string(req.Solve.Mapper)
	entry, ok := s.results.get(req.Fingerprint)
	if !ok {
		lg.error(w, &jobError{status: http.StatusNotFound, err: fmt.Errorf(
			"remap: unknown fingerprint %q; the result may have been evicted — re-solve through %s/map", req.Fingerprint, c.prefix())})
		return
	}
	lg.cacheHit = true
	workers := s.parallelism(j.parallelism)
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(j.timeoutMS))
	defer cancel()
	// Trace every remap server-side (see handleMap); the wire echoes
	// the breakdown only when the request's solve asked.
	spec := req.Spec(workers)
	spec.Solve.Trace = true
	var rres *topomap.RemapResult
	err := s.solve(ctx, lg.id, workers, func(ctx context.Context) error {
		var err error
		rres, err = entry.eng.RunRemap(ctx, entry.tasks, entry.res, req.Delta, spec)
		return err
	})
	if err != nil {
		lg.error(w, err)
		return
	}
	s.st.observeSolve(rres.Result)
	s.st.remapPairsReused.Add(int64(rres.PairsReused))
	s.st.remapPairsTotal.Add(int64(rres.PairsTotal))
	if rres.Warm {
		s.st.remapWarm.Add(1)
	}
	if rres.FenceTripped {
		s.st.remapFallbacks.Add(1)
	}
	// The post-delta engine rides in the new result's cache entry, so
	// chained deltas keep patching instead of rebuilding. CacheHit is
	// true by construction: the route state came from a cached result.
	fp := resultFingerprint(rres.Engine, entry.digest, rres.Result)
	s.results.put(resultEntry{fp: fp, eng: rres.Engine, tasks: entry.tasks, digest: entry.digest, res: rres.Result})
	out, err := mapResponse(rres.Result, rres.Engine, true, j.rankfile, j.trace, time.Since(j.began), fp)
	if err != nil {
		lg.error(w, err)
		return
	}
	s.st.observe(endpointRemap, out.ElapsedMS)
	c.encodeRemap(w, RemapResponse{
		MapResponse:   out,
		Warm:          rres.Warm,
		FenceTripped:  rres.FenceTripped,
		PrevScore:     rres.PrevScore,
		WarmScore:     rres.WarmScore,
		ColdScore:     rres.ColdScore,
		PairsReused:   rres.PairsReused,
		PairsTotal:    rres.PairsTotal,
		MigratedTasks: rres.MigratedTasks,
	})
}

// handlePortfolio serves POST /v1/portfolio: a candidate set raced
// against one shared engine toward a declared objective. The request
// is validated fail-fast — duplicate candidates, unknown mapper or
// objective names and the candidate cap all cost a 400 before any
// slot is held (see admit) — and then occupies `parallelism` worker
// slots for the whole race, exactly like a batch. The portfolio speaks
// JSON only.
func (s *Server) handlePortfolio(w http.ResponseWriter, r *http.Request) {
	c := jsonCodec{s}
	lg, j := s.admit(c, w, r, endpointPortfolio, &s.st.portfolioRequests, c.decodePortfolio)
	if j == nil {
		return
	}
	defer lg.end()
	workers := s.parallelism(j.parallelism)
	j.portfolio.Workers = workers
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(j.timeoutMS))
	defer cancel()
	var eng *topomap.Engine
	var hit bool
	var pres *topomap.PortfolioResult
	err := s.solveUntil(r.Context(), ctx, lg.id, workers, func(ctx context.Context) error {
		var err error
		eng, hit, err = s.engineFor(j)
		if err != nil {
			return err
		}
		pres, err = eng.RunPortfolio(ctx, *j.portfolio)
		return err
	})
	if err != nil {
		lg.error(w, err)
		return
	}
	lg.cacheHit = hit
	lg.mapper = string(pres.Best.Mapper)
	// Candidates trace only when their Solve asks (they race — tracing
	// all of them by default would be pure overhead); a traced winner
	// carries the breakdown out and feeds the stage histograms.
	s.st.observeSolve(pres.Best)
	best, err := mapResponse(pres.Best, eng, hit, j.rankfile, pres.Best.Trace != nil, 0, "")
	if err != nil {
		lg.error(w, err)
		return
	}
	out := PortfolioResponse{
		Winner:      pres.Winner,
		Best:        best,
		Leaderboard: make([]LeaderboardEntry, len(pres.Leaderboard)),
		Skipped:     pres.Skipped,
		CacheHit:    hit,
		ElapsedMS:   float64(time.Since(j.began)) / float64(time.Millisecond),
	}
	for i, entry := range pres.Leaderboard {
		le := LeaderboardEntry{Index: entry.Index, Solve: entry.Solve, Score: entry.Score, Skipped: entry.Skipped}
		if entry.Result != nil {
			le.Metrics = &entry.Result.Metrics
			le.SimSeconds = entry.Result.SimSeconds
		}
		out.Leaderboard[i] = le
	}
	s.st.portfolioCandidates.Add(int64(len(pres.Leaderboard)))
	s.st.portfolioSkipped.Add(int64(pres.Skipped))
	s.st.observe(endpointPortfolio, out.ElapsedMS)
	writeJSON(w, http.StatusOK, out)
}
