package service

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format (version 0.0.4): the service's counters, the engine- and
// result-cache accounting, per-endpoint request-duration histograms
// and per-stage solve-duration histograms. Everything is assembled
// from the same atomics /statusz reads — scrapes never take a lock a
// solve could be holding.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	s.writeMetrics(&b)
	w.Write([]byte(b.String()))
}

// fmtFloat renders a float the exposition format accepts, shortest
// round-trip form.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// writeMetrics renders the full scrape payload.
func (s *Server) writeMetrics(b *strings.Builder) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v string) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, v)
	}

	// Request counters, one labeled series per solving endpoint.
	fmt.Fprintf(b, "# HELP mapd_requests_total Requests received per endpoint.\n# TYPE mapd_requests_total counter\n")
	for _, e := range solveEndpoints {
		var v int64
		switch e {
		case endpointMap:
			v = s.st.requests.Load()
		case endpointBatch:
			v = s.st.batchRequests.Load()
		case endpointPortfolio:
			v = s.st.portfolioRequests.Load()
		case endpointRemap:
			v = s.st.remapRequests.Load()
		}
		fmt.Fprintf(b, "mapd_requests_total{endpoint=%q} %d\n", e, v)
	}
	// Per-protocol split of the same traffic: JSON envelopes vs binary
	// frames.
	fmt.Fprintf(b, "# HELP mapd_protocol_requests_total Solving requests received per wire protocol.\n# TYPE mapd_protocol_requests_total counter\n")
	fmt.Fprintf(b, "mapd_protocol_requests_total{protocol=%q} %d\n", protoJSONLabel, s.st.protoJSON.Load())
	fmt.Fprintf(b, "mapd_protocol_requests_total{protocol=%q} %d\n", protoBinaryLabel, s.st.protoBinary.Load())
	counter("mapd_errors_total", "Requests that failed (bad input, solve error, timeout).", s.st.errors.Load())
	counter("mapd_timeouts_total", "Requests that exceeded their solve deadline.", s.st.timeouts.Load())
	counter("mapd_solve_panics_total", "Requests whose solve panicked and was recovered into a 500.", s.st.solvePanics.Load())
	gauge("mapd_inflight_requests", "Requests currently being served.", strconv.FormatInt(s.st.inflight.Load(), 10))
	gauge("mapd_uptime_seconds", "Seconds since the server started.", fmtFloat(time.Since(s.start).Seconds()))

	// Portfolio and remap accounting.
	counter("mapd_portfolio_candidates_total", "Candidates solved on behalf of /v1/portfolio requests.", s.st.portfolioCandidates.Load())
	counter("mapd_portfolio_skipped_total", "Portfolio candidates cut off by their deadline.", s.st.portfolioSkipped.Load())
	counter("mapd_remap_warm_total", "Remaps the warm-started path won.", s.st.remapWarm.Load())
	counter("mapd_remap_fallbacks_total", "Remaps whose quality fence fell back to a cold solve.", s.st.remapFallbacks.Load())
	counter("mapd_remap_pairs_reused_total", "Route-cache pairs that survived allocation deltas verbatim.", s.st.remapPairsReused.Load())
	counter("mapd_remap_pairs_total", "Route-cache pairs examined across allocation deltas.", s.st.remapPairsTotal.Load())

	// Engine cache (topology+allocation keyed route state).
	hits, misses, evictions := s.cache.Stats()
	counter("mapd_engine_cache_hits_total", "Engine cache hits (route state reused).", hits)
	counter("mapd_engine_cache_misses_total", "Engine cache misses (route state rebuilt).", misses)
	counter("mapd_engine_cache_evictions_total", "Engines evicted from the LRU.", evictions)
	gauge("mapd_engine_cache_entries", "Engines currently cached.", strconv.Itoa(s.cache.Len()))

	// Result cache (fingerprints /v1/remap resolves).
	rhits, rmisses, revictions := s.results.stats()
	counter("mapd_result_cache_hits_total", "Result-cache fingerprint lookups that resolved.", rhits)
	counter("mapd_result_cache_misses_total", "Result-cache fingerprint lookups that missed (unknown or evicted).", rmisses)
	counter("mapd_result_cache_evictions_total", "Results evicted from the LRU.", revictions)
	gauge("mapd_result_cache_entries", "Results currently cached.", strconv.Itoa(s.results.len()))
	mhits, mmisses := s.results.memoStats()
	counter("mapd_solve_memo_hits_total", "Map requests answered from the result cache without solving (identical repeat request).", mhits)
	counter("mapd_solve_memo_misses_total", "Map requests that solved (no identical prior request cached).", mmisses)

	// Intern table (binary-protocol 16-byte section references).
	ihits, imisses, ievictions, iresends := s.intern.stats()
	counter("mapd_intern_hits_total", "Interned section references that resolved.", ihits)
	counter("mapd_intern_misses_total", "Interned section references the table could not resolve (client must resend).", imisses)
	counter("mapd_intern_evictions_total", "Sections evicted from the intern table.", ievictions)
	counter("mapd_intern_resends_total", "Full sections resent after a reported intern miss.", iresends)
	gauge("mapd_intern_entries", "Sections currently interned.", strconv.Itoa(s.intern.len()))

	writeHistogramVec(b, "mapd_request_duration_seconds",
		"Wall time of completed requests by endpoint.", "endpoint", s.st.reqHist)
	writeHistogramVec(b, "mapd_stage_duration_seconds",
		"Wall time of solve pipeline stages (grouping, coarsening, mapping, refinement, balance, metrics).", "stage", s.st.stageHist)

	// Heterogeneous-solve observability: the makespan each completed
	// solve achieved (bottleneck-node finish time, load/speed units)
	// and the load imbalance of the most recent one.
	writeHistogram(b, "mapd_solve_makespan",
		"Makespan (bottleneck-node finish time, load/speed units) of completed solves.", s.st.makespanHist)
	gauge("mapd_load_imbalance", "Load imbalance (makespan over mean node finish time) of the most recent solve.",
		fmtFloat(math.Float64frombits(s.st.lastImbalance.Load())))

	// Build identity, the standard *_build_info shape.
	gov, rev := buildInfo()
	fmt.Fprintf(b, "# HELP mapd_build_info Build identity of the running binary.\n# TYPE mapd_build_info gauge\nmapd_build_info{go_version=%q,revision=%q} 1\n", gov, rev)
}

// writeHistogramVec renders one labeled histogram family with
// cumulative buckets, sorted labels for deterministic scrapes.
func writeHistogramVec(b *strings.Builder, name, help, label string, v *histogramVec) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for _, l := range v.labels() {
		h := v.get(l)
		var cum int64
		for i, ub := range h.bounds {
			cum += h.buckets[i].Load()
			fmt.Fprintf(b, "%s_bucket{%s=%q,le=%q} %d\n", name, label, l, fmtFloat(ub), cum)
		}
		cum += h.buckets[len(h.bounds)].Load()
		fmt.Fprintf(b, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, label, l, cum)
		fmt.Fprintf(b, "%s_sum{%s=%q} %s\n", name, label, l, fmtFloat(float64(h.sumMicros.Load())/1e6))
		fmt.Fprintf(b, "%s_count{%s=%q} %d\n", name, label, l, h.count.Load())
	}
}

// writeHistogram renders one unlabeled histogram family with
// cumulative buckets.
func writeHistogram(b *strings.Builder, name, help string, h *histogram) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum int64
	for i, ub := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, fmtFloat(ub), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(b, "%s_sum %s\n", name, fmtFloat(float64(h.sumMicros.Load())/1e6))
	fmt.Fprintf(b, "%s_count %d\n", name, h.count.Load())
}
