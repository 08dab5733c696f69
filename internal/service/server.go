package service

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	topomap "repro"
	"repro/internal/registry"
)

// Config tunes a Server. The zero value serves with sensible
// defaults.
type Config struct {
	// Workers bounds the total solver goroutines across all in-flight
	// requests (further requests queue, cancellable while waiting).
	// A request with wire-level parallelism p occupies p worker
	// slots, so a parallel batch can never oversubscribe the host.
	// Default: GOMAXPROCS.
	Workers int
	// MaxParallelism caps the per-request `parallelism` field: a
	// request may ask for more, but the server clamps it here (and to
	// Workers). Default: GOMAXPROCS.
	MaxParallelism int
	// CacheSize bounds the engine LRU cache. Default 32 engines.
	CacheSize int
	// MaxPortfolioCandidates caps the explicit candidate list of one
	// /v1/portfolio request. Default 16.
	MaxPortfolioCandidates int
	// ResultCacheSize bounds the LRU of recent results /v1/remap
	// resolves fingerprints against. Default 128 results.
	ResultCacheSize int
	// InternTableSize bounds the LRU of interned request sections the
	// binary protocol's 16-byte references resolve against. Default
	// 512 sections.
	InternTableSize int
	// DefaultTimeout is the per-request solve deadline when the
	// request carries no timeout_ms. Default 30s.
	DefaultTimeout time.Duration
	// MaxBodyBytes bounds request bodies. Default 32 MiB.
	MaxBodyBytes int64
	// Logger, when non-nil, receives one structured line per request
	// (request id, endpoint, mapper, cache hit, outcome, duration).
	// Nil disables request logging; counters and histograms record
	// regardless.
	Logger *slog.Logger
}

// Server is the mapping service: HTTP handlers over a bounded worker
// pool and an allocation-keyed engine cache. Create it with New and
// mount Handler on any http.Server (cmd/mapd) or drive it in-process
// through the client package.
type Server struct {
	cfg     Config
	cache   *topomap.EngineCache
	results *resultCache
	intern  *internTable
	sem     chan struct{}
	acq     chan struct{} // serializes slot acquisition (multi-slot safe)
	st      *stats
	mux     *http.ServeMux
	start   time.Time
	log     *slog.Logger
	reqID   atomic.Uint64
}

// New returns a ready Server.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxParallelism <= 0 {
		cfg.MaxParallelism = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxParallelism > cfg.Workers {
		cfg.MaxParallelism = cfg.Workers
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 32
	}
	if cfg.MaxPortfolioCandidates <= 0 {
		cfg.MaxPortfolioCandidates = 16
	}
	if cfg.ResultCacheSize <= 0 {
		cfg.ResultCacheSize = 128
	}
	if cfg.InternTableSize <= 0 {
		cfg.InternTableSize = 512
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	s := &Server{
		cfg:     cfg,
		cache:   topomap.NewEngineCache(cfg.CacheSize),
		results: newResultCache(cfg.ResultCacheSize),
		intern:  newInternTable(cfg.InternTableSize),
		sem:     make(chan struct{}, cfg.Workers),
		acq:     make(chan struct{}, 1),
		st:      newStats(),
		mux:     http.NewServeMux(),
		start:   time.Now(),
		log:     cfg.Logger,
	}
	// One handler per job kind, bound to each protocol's codec.
	for _, c := range []codec{jsonCodec{s}, binaryCodec{s}} {
		s.mux.HandleFunc(c.prefix()+"/map", func(w http.ResponseWriter, r *http.Request) { s.handleMap(c, w, r) })
		s.mux.HandleFunc(c.prefix()+"/map/batch", func(w http.ResponseWriter, r *http.Request) { s.handleBatch(c, w, r) })
		s.mux.HandleFunc(c.prefix()+"/remap", func(w http.ResponseWriter, r *http.Request) { s.handleRemap(c, w, r) })
	}
	s.mux.HandleFunc("/v1/portfolio", s.handlePortfolio)
	s.mux.HandleFunc("/v1/mappers", s.handleMappers)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statusz", s.handleStatusz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// requestLog accumulates the fields of one request's structured log
// line; the handler fills them in as they become known and end writes
// the line once, from a defer. A nil server logger makes the whole
// thing a cheap no-op. c is the request's codec, which error paths
// encode through.
type requestLog struct {
	s        *Server
	c        codec
	id       uint64
	endpoint string
	mapper   string
	cacheHit bool
	status   int
	errMsg   string
	began    time.Time
}

// error records the classified outcome, bumps the error counter and
// writes the wire error — the one call every handler error path makes.
func (l *requestLog) error(w http.ResponseWriter, err error) {
	status, missing := l.s.classify(err)
	l.s.st.errors.Add(1)
	l.status, l.errMsg = status, err.Error()
	l.c.encodeError(w, status, missing, err)
}

// end closes a request admit opened: it leaves the in-flight gauge
// and emits the log line.
func (l *requestLog) end() {
	l.s.st.inflight.Add(-1)
	l.emit()
}

// emit writes the request's log line: Info for 2xx, Warn otherwise.
func (l *requestLog) emit() {
	if l.s.log == nil {
		return
	}
	attrs := []slog.Attr{
		slog.Uint64("req_id", l.id),
		slog.String("endpoint", l.endpoint),
		slog.Int("status", l.status),
		slog.Float64("duration_ms", float64(time.Since(l.began))/float64(time.Millisecond)),
	}
	if l.mapper != "" {
		attrs = append(attrs, slog.String("mapper", l.mapper))
	}
	attrs = append(attrs, slog.Bool("cache_hit", l.cacheHit))
	level := slog.LevelInfo
	if l.status >= 400 {
		level = slog.LevelWarn
		attrs = append(attrs, slog.String("error", l.errMsg))
	}
	l.s.log.LogAttrs(context.Background(), level, "request", attrs...)
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// timeout resolves the effective solve deadline of a request.
func (s *Server) timeout(ms int64) time.Duration {
	if ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	return s.cfg.DefaultTimeout
}

// parallelism clamps a request's wire-level parallelism to the
// server's cap: at least 1, at most min(MaxParallelism, Workers).
func (s *Server) parallelism(p int) int {
	if p < 1 {
		p = 1
	}
	if p > s.cfg.MaxParallelism {
		p = s.cfg.MaxParallelism
	}
	return p
}

// acquire takes n worker slots, waiting cancellably; the returned
// release must be called when the solve finishes. Acquisition is
// serialized through s.acq so two multi-slot requests can never
// deadlock each other holding partial slot sets; a cancelled waiter
// returns everything it held.
func (s *Server) acquire(ctx context.Context, n int) (release func(), err error) {
	select {
	case s.acq <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-s.acq }()
	for got := 0; got < n; got++ {
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			for i := 0; i < got; i++ {
				<-s.sem
			}
			return nil, ctx.Err()
		}
	}
	return func() {
		for i := 0; i < n; i++ {
			<-s.sem
		}
	}, nil
}

// solve runs fn on `slots` worker slots under deadline; fn captures
// its own result. The handler returns as soon as the deadline expires
// even if a solve stage is still winding down to its next
// cancellation point; the abandoned solve keeps its slots until it
// finishes (bounding CPU oversubscription) and is then discarded.
func (s *Server) solve(ctx context.Context, id uint64, slots int, fn func(context.Context) error) error {
	return s.solveUntil(ctx, ctx, id, slots, fn)
}

// solveUntil separates the two contexts a solve answers to: fn runs
// under solveCtx (the per-request deadline — cancelling it is how the
// deadline reaches the candidates), while the caller waits for fn or
// for waitCtx, whichever ends first. The map handler races both on
// the same context (a dead deadline means the response has no value);
// the portfolio handler passes the bare client context as waitCtx so an
// expired deadline cancels the race but the handler still collects
// the best-so-far result RunPortfolio assembles after it — only a
// client disconnect abandons the solve outright.
//
// A panic in fn, or in a solve worker (parallel.Group re-raises those
// on fn's goroutine), fails only this request: it is recovered into a
// 500, counted in solve_panics, and logged with the request id id and
// the stack.
func (s *Server) solveUntil(waitCtx, solveCtx context.Context, id uint64, slots int, fn func(context.Context) error) error {
	release, err := s.acquire(solveCtx, slots)
	if err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() {
		defer release()
		defer func() {
			if r := recover(); r != nil {
				s.st.solvePanics.Add(1)
				if s.log != nil {
					s.log.LogAttrs(context.Background(), slog.LevelError, "solve panic",
						slog.Uint64("req_id", id), slog.String("panic", fmt.Sprintf("%+v", r)),
						slog.String("stack", string(debug.Stack())))
				}
				done <- &jobError{status: http.StatusInternalServerError, err: fmt.Errorf("internal error: solve panicked: %v", r)}
			}
		}()
		done <- fn(solveCtx)
	}()
	select {
	case err := <-done:
		return err
	case <-waitCtx.Done():
		return waitCtx.Err()
	}
}

// handleMappers serves GET /v1/mappers: the registry's capability
// listing.
func (s *Server) handleMappers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	writeJSON(w, http.StatusOK, MappersResponse{Mappers: registry.List()})
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleStatusz serves GET /statusz: the live counters.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Status())
}

// Status snapshots the live counters.
func (s *Server) Status() Status {
	hits, misses, evictions := s.cache.Stats()
	rhits, rmisses, revictions := s.results.stats()
	hitsByAge, evictionsByAge := s.results.byAge()
	mhits, mmisses := s.results.memoStats()
	ihits, imisses, ievictions, iresends := s.intern.stats()
	p50, p90, p99, samples := s.st.all.quantiles()
	perEndpoint := make(map[string]LatencySummary, len(solveEndpoints))
	for _, e := range solveEndpoints {
		ep50, ep90, ep99, en := s.st.endpoint[e].quantiles()
		perEndpoint[e] = LatencySummary{P50MS: ep50, P90MS: ep90, P99MS: ep99, Samples: en}
	}
	goVersion, revision := buildInfo()
	return Status{
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Requests:       s.st.requests.Load(),
		BatchRequests:  s.st.batchRequests.Load(),
		Errors:         s.st.errors.Load(),
		Timeouts:       s.st.timeouts.Load(),
		SolvePanics:    s.st.solvePanics.Load(),
		InFlight:       s.st.inflight.Load(),
		Workers:        s.cfg.Workers,
		MaxParallelism: s.cfg.MaxParallelism,

		PortfolioRequests:    s.st.portfolioRequests.Load(),
		PortfolioCandidates:  s.st.portfolioCandidates.Load(),
		PortfolioSkipped:     s.st.portfolioSkipped.Load(),
		MaxCandidates:        s.cfg.MaxPortfolioCandidates,
		RemapRequests:        s.st.remapRequests.Load(),
		RemapWarm:            s.st.remapWarm.Load(),
		RemapFallbacks:       s.st.remapFallbacks.Load(),
		RemapPairsReused:     s.st.remapPairsReused.Load(),
		RemapPairsTotal:      s.st.remapPairsTotal.Load(),
		ResultEntries:        s.results.len(),
		ResultCapacity:       s.cfg.ResultCacheSize,
		ResultHits:           rhits,
		ResultMisses:         rmisses,
		ResultEvictions:      revictions,
		ResultHitsByAge:      hitsByAge,
		ResultEvictionsByAge: evictionsByAge,
		SolveMemoHits:        mhits,
		SolveMemoMisses:      mmisses,
		ProtocolRequests: map[string]int64{
			protoJSONLabel:   s.st.protoJSON.Load(),
			protoBinaryLabel: s.st.protoBinary.Load(),
		},
		InternEntries:   s.intern.len(),
		InternCapacity:  s.cfg.InternTableSize,
		InternHits:      ihits,
		InternMisses:    imisses,
		InternEvictions: ievictions,
		InternResends:   iresends,
		CacheHits:       hits,
		CacheMisses:     misses,
		CacheEvictions:  evictions,
		CacheEntries:    s.cache.Len(),
		CacheCapacity:   s.cache.Cap(),
		LatencyP50MS:    p50,
		LatencyP90MS:    p90,
		LatencyP99MS:    p99,
		LatencySamples:  samples,
		EndpointLatency: perEndpoint,
		Mappers:         len(registry.Names()),
		MakespanSolves:  s.st.makespanHist.count.Load(),
		MakespanSum:     float64(s.st.makespanHist.sumMicros.Load()) / 1e6,
		LoadImbalance:   math.Float64frombits(s.st.lastImbalance.Load()),
		GoVersion:       goVersion,
		VCSRevision:     revision,
	}
}
