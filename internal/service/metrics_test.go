package service_test

// Observability tests: the /metrics scrape (exposition-format golden
// structure, histogram invariants), per-endpoint /statusz latency,
// result-cache counters, and the wire-level trace opt-in.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/service"
)

// mapBody is the request every observability test solves: small and
// fully deterministic, so the stage label set on /metrics is pinned.
func mapBody(extra string) string {
	return fmt.Sprintf(`{
		"topology":   {"kind": "torus", "dims": [6,6,6]},
		"allocation": {"sparse_nodes": 8, "seed": 1},
		"tasks":      {"n": 64, "edges": [%s]},
		"mapper":     "UWH"%s}`, ringEdges(64), extra)
}

func ringEdges(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "[%d,%d,10]", i, (i+1)%n)
	}
	return sb.String()
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestMetricsExposition is the /metrics golden test: after one /v1/map
// solve the scrape must carry exactly the advertised metric families
// in order, declare the exposition content type, and satisfy the
// histogram invariants (monotone cumulative buckets, +Inf == count).
func TestMetricsExposition(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{}).Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/map", mapBody(""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("map: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q, want text exposition format 0.0.4", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	// Golden family list, in scrape order. Add new metrics here when
	// the server grows them — the test pins the set both ways.
	wantFamilies := []string{
		"mapd_requests_total",
		"mapd_protocol_requests_total",
		"mapd_errors_total",
		"mapd_timeouts_total",
		"mapd_solve_panics_total",
		"mapd_inflight_requests",
		"mapd_uptime_seconds",
		"mapd_portfolio_candidates_total",
		"mapd_portfolio_skipped_total",
		"mapd_remap_warm_total",
		"mapd_remap_fallbacks_total",
		"mapd_remap_pairs_reused_total",
		"mapd_remap_pairs_total",
		"mapd_engine_cache_hits_total",
		"mapd_engine_cache_misses_total",
		"mapd_engine_cache_evictions_total",
		"mapd_engine_cache_entries",
		"mapd_result_cache_hits_total",
		"mapd_result_cache_misses_total",
		"mapd_result_cache_evictions_total",
		"mapd_result_cache_entries",
		"mapd_solve_memo_hits_total",
		"mapd_solve_memo_misses_total",
		"mapd_intern_hits_total",
		"mapd_intern_misses_total",
		"mapd_intern_evictions_total",
		"mapd_intern_resends_total",
		"mapd_intern_entries",
		"mapd_request_duration_seconds",
		"mapd_stage_duration_seconds",
		"mapd_solve_makespan",
		"mapd_load_imbalance",
		"mapd_build_info",
	}
	var gotFamilies []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			gotFamilies = append(gotFamilies, strings.Fields(line)[2])
		}
	}
	if strings.Join(gotFamilies, ",") != strings.Join(wantFamilies, ",") {
		t.Fatalf("metric families:\n got  %v\n want %v", gotFamilies, wantFamilies)
	}

	// Every HELP has a TYPE and every sample line parses as
	// name{labels} value with a finite numeric value.
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Fatalf("sample %q: bad value: %v", line, err)
		}
	}

	mustContain := []string{
		`mapd_requests_total{endpoint="map"} 1`,
		`mapd_protocol_requests_total{protocol="json"} 1`,
		`mapd_protocol_requests_total{protocol="binary"} 0`,
		"mapd_intern_entries 0",
		`mapd_requests_total{endpoint="batch"} 0`,
		`mapd_requests_total{endpoint="portfolio"} 0`,
		`mapd_requests_total{endpoint="remap"} 0`,
		"mapd_errors_total 0",
		"mapd_solve_panics_total 0",
		"mapd_engine_cache_misses_total 1",
		"mapd_result_cache_entries 1",
		`mapd_request_duration_seconds_count{endpoint="map"} 1`,
		// The solved coarse graph reports a makespan, so one solve
		// lands in the makespan histogram and sets the gauge.
		"mapd_solve_makespan_count 1",
		"mapd_load_imbalance ",
		`mapd_build_info{go_version="go`,
	}
	for _, want := range mustContain {
		if !strings.Contains(body, want) {
			t.Fatalf("scrape missing %q", want)
		}
	}

	// One untraced-by-the-client map solve still feeds the per-stage
	// histograms (the server traces for itself): exactly the four
	// always-on stages of a plain solve.
	for _, stage := range []string{"group", "coarsen", "map", "metrics"} {
		if !strings.Contains(body, fmt.Sprintf(`mapd_stage_duration_seconds_count{stage=%q} 1`, stage)) {
			t.Fatalf("scrape missing stage histogram for %q", stage)
		}
	}

	// Histogram invariant: cumulative buckets are monotone and the
	// +Inf bucket equals the count.
	checkHistogram(t, body, `mapd_request_duration_seconds`, `endpoint="map"`)
	checkHistogram(t, body, `mapd_stage_duration_seconds`, `stage="map"`)
}

// checkHistogram verifies monotone cumulative buckets and
// +Inf == count for one labeled series.
func checkHistogram(t *testing.T, body, name, label string) {
	t.Helper()
	var last, inf int64 = -1, -1
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name+"_bucket{"+label+",") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		if v < last {
			t.Fatalf("%s{%s}: bucket counts not monotone at %q", name, label, line)
		}
		last = v
		if strings.Contains(line, `le="+Inf"`) {
			inf = v
		}
	}
	if inf < 0 {
		t.Fatalf("%s{%s}: no +Inf bucket", name, label)
	}
	countLine := name + "_count{" + label + "} "
	i := strings.Index(body, countLine)
	if i < 0 {
		t.Fatalf("%s{%s}: no count series", name, label)
	}
	rest := body[i+len(countLine):]
	count, err := strconv.ParseInt(rest[:strings.IndexByte(rest, '\n')], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	if inf != count {
		t.Fatalf("%s{%s}: +Inf bucket %d != count %d", name, label, inf, count)
	}
}

// TestMapTraceOnWire: the stage breakdown rides the response only when
// the request opts in, and names the pipeline stages in order.
func TestMapTraceOnWire(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{}).Handler())
	defer ts.Close()

	var plain struct {
		Trace []json.RawMessage `json:"trace"`
	}
	resp := postJSON(t, ts.URL+"/v1/map", mapBody(""))
	if err := json.NewDecoder(resp.Body).Decode(&plain); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if plain.Trace != nil {
		t.Fatalf("untraced request got %d trace stages", len(plain.Trace))
	}

	var traced struct {
		Trace []struct {
			Name  string  `json:"name"`
			DurMS float64 `json:"dur_ms"`
		} `json:"trace"`
	}
	resp = postJSON(t, ts.URL+"/v1/map", mapBody(`, "trace": true`))
	if err := json.NewDecoder(resp.Body).Decode(&traced); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var names []string
	for _, st := range traced.Trace {
		names = append(names, st.Name)
	}
	if strings.Join(names, ",") != "group,coarsen,map,metrics" {
		t.Fatalf("traced stages %v, want [group coarsen map metrics]", names)
	}
}

// TestStatuszObservability: per-endpoint latency blocks, result-cache
// counters and build identity on /statusz.
func TestStatuszObservability(t *testing.T) {
	srv := service.New(service.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/map", mapBody(""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("map: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	// An unknown fingerprint is a result-cache miss (and a 404).
	resp = postJSON(t, ts.URL+"/v1/remap", `{"fingerprint":"map:nope","delta":{"remove":[1]}}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("remap with bogus fingerprint: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	st := srv.Status()
	lat, ok := st.EndpointLatency["map"]
	if !ok || lat.Samples != 1 {
		t.Fatalf("endpoint_latency[map] = %+v, want 1 sample", lat)
	}
	for _, e := range []string{"batch", "portfolio", "remap"} {
		if st.EndpointLatency[e].Samples != 0 {
			t.Fatalf("endpoint %s has %d samples, want 0", e, st.EndpointLatency[e].Samples)
		}
	}
	if st.LatencySamples != 1 {
		t.Fatalf("combined latency samples = %d, want 1", st.LatencySamples)
	}
	if st.ResultMisses != 1 || st.ResultHits != 0 || st.ResultEntries != 1 {
		t.Fatalf("result cache hits=%d misses=%d entries=%d, want 0/1/1",
			st.ResultHits, st.ResultMisses, st.ResultEntries)
	}
	if st.GoVersion == "" || st.VCSRevision == "" {
		t.Fatalf("build identity missing: go=%q rev=%q", st.GoVersion, st.VCSRevision)
	}
}
