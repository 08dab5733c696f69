package service_test

// Cross-protocol tests of the /v2 binary frame endpoints: a binary
// request must produce the IDENTICAL response a JSON request for the
// same spec does — same placements, metrics, rankfiles and result
// fingerprints, for every registered mapper — plus the intern-table
// flow (full sections → 16-byte references → miss → 404 → resend
// recovery), the client's failure against JSON-only servers, and the
// error surface for malformed frames. `make race`
// runs this whole package under the race detector.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	topomap "repro"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/wirebin"
)

// protoClient builds a fresh server and an in-process client pinned
// to the given protocol.
func protoClient(cfg service.Config, p client.Protocol) (*service.Server, *client.Client) {
	srv := service.New(cfg)
	return srv, client.InProcess(srv.Handler(), client.WithProtocol(p))
}

// scrubMap zeroes the response fields that legitimately differ
// between two servers answering the same request: wall time and the
// stage-timeline timings. Everything else must match bit for bit.
func scrubMap(r *service.MapResponse) {
	r.ElapsedMS = 0
	r.Trace = nil
}

// mapReq is the shared equivalence workload: explicit solve knobs so
// both protocols exercise their full flag words.
func mapReq(spec service.TaskGraphSpec, mapper string) service.MapRequest {
	return service.MapRequest{
		Topology:   torusSpec(),
		Allocation: service.AllocationSpec{SparseNodes: 8, Seed: 1},
		Tasks:      spec,
		Mapper:     mapper,
		Seed:       7,
	}
}

// TestBinaryMapEquivalence is the cross-protocol acceptance gate: for
// every registered mapper, a /v2/map frame and a /v1/map JSON
// envelope for the same spec must return identical responses —
// placements, metrics, rankfile text and, critically, the result
// fingerprint (so a remap chain can hop protocols).
func TestBinaryMapEquivalence(t *testing.T) {
	spec, _ := testTasks(64)
	specC, _ := testTasksCoords(64)
	_, cj := protoClient(service.Config{}, client.ProtoJSON)
	_, cb := protoClient(service.Config{}, client.ProtoBinary)

	for _, mp := range topomap.RegisteredMappers() {
		if strings.HasPrefix(string(mp), "TEST-") {
			continue // registered by other tests in this binary
		}
		taskSpec := spec
		if topomap.MapperCapsOf(mp).NeedsCoords {
			taskSpec = specC
		}
		jr, err := cj.Map(context.Background(), mapReq(taskSpec, string(mp)))
		if err != nil {
			t.Fatalf("%s: json: %v", mp, err)
		}
		br, err := cb.Map(context.Background(), mapReq(taskSpec, string(mp)))
		if err != nil {
			t.Fatalf("%s: binary: %v", mp, err)
		}
		if jr.Fingerprint == "" || br.Fingerprint != jr.Fingerprint {
			t.Fatalf("%s: fingerprint diverged: json %q, binary %q", mp, jr.Fingerprint, br.Fingerprint)
		}
		scrubMap(jr)
		scrubMap(br)
		if !reflect.DeepEqual(jr, br) {
			t.Fatalf("%s: responses diverged:\n json   %+v\n binary %+v", mp, jr, br)
		}
	}
}

// TestBinaryBatchEquivalence pins the batch endpoint across
// protocols: same shared-engine semantics, same per-item results in
// request order.
func TestBinaryBatchEquivalence(t *testing.T) {
	spec, _ := testTasks(64)
	_, cj := protoClient(service.Config{}, client.ProtoJSON)
	_, cb := protoClient(service.Config{}, client.ProtoBinary)

	req := service.BatchRequest{
		Topology:   torusSpec(),
		Allocation: service.AllocationSpec{SparseNodes: 8, Seed: 1},
		Tasks:      spec,
		Requests: []service.BatchItem{
			{Mapper: "UWH", Seed: 3},
			{Mapper: "UMC", Seed: 3, Refine: true},
			{Mapper: "UG", Seed: 9},
		},
	}
	jr, err := cj.MapBatch(context.Background(), req)
	if err != nil {
		t.Fatalf("json: %v", err)
	}
	br, err := cb.MapBatch(context.Background(), req)
	if err != nil {
		t.Fatalf("binary: %v", err)
	}
	if len(br.Results) != len(jr.Results) {
		t.Fatalf("binary returned %d results, json %d", len(br.Results), len(jr.Results))
	}
	jr.ElapsedMS, br.ElapsedMS = 0, 0
	for i := range jr.Results {
		scrubMap(&jr.Results[i])
		scrubMap(&br.Results[i])
	}
	if !reflect.DeepEqual(jr, br) {
		t.Fatalf("batch responses diverged:\n json   %+v\n binary %+v", jr, br)
	}
}

// TestBinaryRemapEquivalence pins the incremental-remap flow across
// protocols: map, kill a node, remap by fingerprint — identical
// post-delta placements, warm/fence accounting and fresh
// fingerprints on both wires.
func TestBinaryRemapEquivalence(t *testing.T) {
	spec, _ := testTasks(64)
	_, cj := protoClient(service.Config{}, client.ProtoJSON)
	_, cb := protoClient(service.Config{}, client.ProtoBinary)

	remap := func(c *client.Client, label string) *service.RemapResponse {
		t.Helper()
		mapped, err := c.Map(context.Background(), mapReq(spec, "UWH"))
		if err != nil {
			t.Fatalf("%s: map: %v", label, err)
		}
		rr, err := c.Remap(context.Background(), service.RemapRequest{
			Fingerprint: mapped.Fingerprint,
			Delta:       topomap.AllocationDelta{Remove: []int32{mapped.AllocNodes[3]}},
		})
		if err != nil {
			t.Fatalf("%s: remap: %v", label, err)
		}
		return rr
	}
	jr := remap(cj, "json")
	br := remap(cb, "binary")
	if jr.Fingerprint == "" || br.Fingerprint != jr.Fingerprint {
		t.Fatalf("remap fingerprint diverged: json %q, binary %q", jr.Fingerprint, br.Fingerprint)
	}
	scrubMap(&jr.MapResponse)
	scrubMap(&br.MapResponse)
	if !reflect.DeepEqual(jr, br) {
		t.Fatalf("remap responses diverged:\n json   %+v\n binary %+v", jr, br)
	}
}

// TestBinaryRankfileEquivalence pins the rankfile echo across
// protocols on a fully packed allocation (the shape SMP block filling
// can realize): identical MPICH_RANK_ORDER text on both wires.
func TestBinaryRankfileEquivalence(t *testing.T) {
	spec, _ := testTasks(64)
	_, cj := protoClient(service.Config{}, client.ProtoJSON)
	_, cb := protoClient(service.Config{}, client.ProtoBinary)

	req := service.MapRequest{
		Topology:   torusSpec(),
		Allocation: service.AllocationSpec{Nodes: []int32{3, 17, 41, 90}, ProcsPerNode: []int{16}},
		Tasks:      spec,
		Mapper:     "UWH",
		Seed:       1,
		Rankfile:   true,
	}
	jr, err := cj.Map(context.Background(), req)
	if err != nil {
		t.Fatalf("json: %v", err)
	}
	br, err := cb.Map(context.Background(), req)
	if err != nil {
		t.Fatalf("binary: %v", err)
	}
	if jr.Rankfile == "" || br.Rankfile != jr.Rankfile {
		t.Fatalf("rankfile text diverged:\n json   %q\n binary %q", jr.Rankfile, br.Rankfile)
	}
}

// TestBinaryTraceEcho pins the opt-in trace echo across protocols:
// the binary path ships the stage timeline as a JSON blob, and the
// decoded stages must name the same pipeline the JSON path reports.
func TestBinaryTraceEcho(t *testing.T) {
	spec, _ := testTasks(64)
	_, cj := protoClient(service.Config{}, client.ProtoJSON)
	_, cb := protoClient(service.Config{}, client.ProtoBinary)

	req := mapReq(spec, "UWH")
	req.Trace = true
	jr, err := cj.Map(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	br, err := cb.Map(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Trace) == 0 {
		t.Fatal("binary response carries no trace despite the request flag")
	}
	names := func(resp *service.MapResponse) (out []string) {
		for _, st := range resp.Trace {
			out = append(out, st.Name)
		}
		return out
	}
	if got, want := names(br), names(jr); !reflect.DeepEqual(got, want) {
		t.Fatalf("binary trace stages %v, json %v", got, want)
	}
}

// TestBinaryInternFlow walks the intern table end to end on one
// server: full sections on first contact, 16-byte references once
// confirmed, eviction-induced miss answered with a 404 bitmask, and
// the client's transparent one-round resend recovery. The /statusz
// counters must narrate every step.
func TestBinaryInternFlow(t *testing.T) {
	spec, _ := testTasks(64)
	srv := service.New(service.Config{InternTableSize: 4})
	cb := client.InProcess(srv.Handler(), client.WithProtocol(client.ProtoBinary))

	req := mapReq(spec, "UWH")
	first, err := cb.Map(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	st := srv.Status()
	if st.InternEntries != 3 {
		t.Fatalf("first contact interned %d sections, want 3 (topology, allocation, tasks)", st.InternEntries)
	}
	if st.InternHits != 0 || st.InternResends != 0 {
		t.Fatalf("first contact counted hits=%d resends=%d, want 0/0", st.InternHits, st.InternResends)
	}

	// Warm repeat: the client now sends bare references.
	second, err := cb.Map(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	st = srv.Status()
	if st.InternHits != 3 {
		t.Fatalf("warm repeat resolved %d references, want 3", st.InternHits)
	}
	if !reflect.DeepEqual(second.NodeOf, first.NodeOf) || second.Fingerprint != first.Fingerprint {
		t.Fatal("interned-reference solve diverged from the full-section solve")
	}

	// Churn the 4-entry table with two distinct specs (6 fresh
	// sections) so the first client's entries all evict.
	churnSpec, _ := testTasks(48)
	for i, dims := range [][]int{{4, 4, 4}, {5, 5, 5}} {
		churn := service.MapRequest{
			Topology:   service.TopologySpec{Kind: "torus", Dims: dims},
			Allocation: service.AllocationSpec{SparseNodes: 6, Seed: int64(i + 2)},
			Tasks:      churnSpec,
			Mapper:     "UWH",
			Seed:       1,
		}
		// A fresh client per spec: its own memo, full sections on the wire.
		churnClient := client.InProcess(srv.Handler(), client.WithProtocol(client.ProtoBinary))
		if _, err := churnClient.Map(context.Background(), churn); err != nil {
			t.Fatalf("churn %d: %v", i, err)
		}
	}
	st = srv.Status()
	if st.InternEvictions < 3 {
		t.Fatalf("churn evicted %d sections, want >= 3", st.InternEvictions)
	}

	// The first client still believes its sections are interned: the
	// reference request must 404 with a miss bitmask and the client
	// must recover by resending in full — transparently.
	third, err := cb.Map(context.Background(), req)
	if err != nil {
		t.Fatalf("miss recovery failed: %v", err)
	}
	if !reflect.DeepEqual(third.NodeOf, first.NodeOf) || third.Fingerprint != first.Fingerprint {
		t.Fatal("post-recovery solve diverged from the original")
	}
	st = srv.Status()
	if st.InternMisses < 3 {
		t.Fatalf("eviction round-trip counted %d misses, want >= 3", st.InternMisses)
	}
	if st.InternResends != 3 {
		t.Fatalf("recovery resent %d sections, want 3", st.InternResends)
	}
	if st.ProtocolRequests[`json`] != 0 || st.ProtocolRequests[`binary`] == 0 {
		t.Fatalf("protocol counters %v, want all-binary traffic", st.ProtocolRequests)
	}

	// Result fingerprints are protocol-neutral: a mapping solved over
	// /v2 frames remaps over /v1 JSON on the same server.
	cj := client.InProcess(srv.Handler(), client.WithProtocol(client.ProtoJSON))
	rr, err := cj.Remap(context.Background(), service.RemapRequest{
		Fingerprint: third.Fingerprint,
		Delta:       topomap.AllocationDelta{Remove: []int32{third.AllocNodes[0]}},
	})
	if err != nil {
		t.Fatalf("cross-protocol remap: %v", err)
	}
	if rr.Fingerprint == "" || rr.Fingerprint == third.Fingerprint {
		t.Fatal("cross-protocol remap returned no fresh fingerprint")
	}
}

// TestBinaryNegotiation pins the client against a server without the
// binary protocol: a binary client (the default) fails loudly instead
// of guessing.
func TestBinaryNegotiation(t *testing.T) {
	spec, _ := testTasks(64)
	srv := service.New(service.Config{})
	// A pre-/v2 server: only the /v1 routes exist; /v2/* is the mux's
	// plain-text 404.
	legacy := http.NewServeMux()
	legacy.Handle("/v1/", srv.Handler())

	forced := client.InProcess(legacy, client.WithProtocol(client.ProtoBinary))
	if _, err := forced.Map(context.Background(), mapReq(spec, "UWH")); err == nil ||
		!strings.Contains(err.Error(), "does not speak the binary protocol") {
		t.Fatalf("forced-binary client against a JSON-only server: %v", err)
	}
}

// TestBinaryFrameErrors pins the /v2 error surface over a real
// socket: garbage, version skew, wrong message types and oversized
// declarations must come back as clean Error frames with the HTTP
// status the JSON path would have used — never hangs or panics.
func TestBinaryFrameErrors(t *testing.T) {
	srv := service.New(service.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(t *testing.T, body []byte) (int, *wirebin.ErrorFrame) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v2/map", wirebin.ContentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != wirebin.ContentType {
			t.Fatalf("error response content type %q, want %q", ct, wirebin.ContentType)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		msgType, payload, err := wirebin.DecodeHeader(raw, 1<<20)
		if err != nil {
			t.Fatalf("undecodable error frame: %v", err)
		}
		if msgType != wirebin.MsgError {
			t.Fatalf("frame type %d, want MsgError", msgType)
		}
		ef, err := wirebin.DecodeError(payload)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, ef
	}

	t.Run("garbage", func(t *testing.T) {
		code, ef := post(t, []byte("definitely not a frame"))
		if code != http.StatusBadRequest || ef.Status != http.StatusBadRequest {
			t.Fatalf("garbage got HTTP %d / frame %d, want 400/400", code, ef.Status)
		}
	})
	t.Run("version-skew", func(t *testing.T) {
		fw := wirebin.GetWriter()
		defer wirebin.PutWriter(fw)
		wirebin.EncodeMapReq(fw, &wirebin.MapReq{Mapper: "UWH"})
		frame := append([]byte(nil), fw.Bytes()...)
		frame[4] = 99 // future version byte
		code, ef := post(t, frame)
		if code != http.StatusBadRequest || !strings.Contains(ef.Message, "version") {
			t.Fatalf("version skew got HTTP %d %q", code, ef.Message)
		}
	})
	t.Run("wrong-message-type", func(t *testing.T) {
		fw := wirebin.GetWriter()
		defer wirebin.PutWriter(fw)
		wirebin.EncodeRemapReq(fw, &wirebin.RemapReq{Fingerprint: "x", Mapper: "UWH"})
		code, ef := post(t, fw.Bytes())
		if code != http.StatusBadRequest || !strings.Contains(ef.Message, "message type") {
			t.Fatalf("wrong message type got HTTP %d %q", code, ef.Message)
		}
	})
	t.Run("truncated-payload", func(t *testing.T) {
		fw := wirebin.GetWriter()
		defer wirebin.PutWriter(fw)
		wirebin.EncodeMapReq(fw, &wirebin.MapReq{
			Mapper: "UWH",
			Topo:   wirebin.FullSection([]byte{1, 2, 3}),
			Alloc:  wirebin.FullSection([]byte{1}),
			Tasks:  wirebin.FullSection([]byte{0, 0}),
		})
		frame := fw.Bytes()[:fw.Len()-3] // cut mid-payload; declared length now lies
		code, _ := post(t, frame)
		if code != http.StatusBadRequest {
			t.Fatalf("truncated frame got HTTP %d, want 400", code)
		}
	})
	t.Run("method", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v2/map")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /v2/map got %d, want 405", resp.StatusCode)
		}
	})
	t.Run("unknown-ref", func(t *testing.T) {
		// Bare references a fresh server has never seen: the miss frame
		// must name all three sections.
		fw := wirebin.GetWriter()
		defer wirebin.PutWriter(fw)
		var id [wirebin.FingerprintLen]byte
		copy(id[:], "nobody-home-1234")
		wirebin.EncodeMapReq(fw, &wirebin.MapReq{
			Mapper: "UWH",
			Topo:   wirebin.RefSection(id),
			Alloc:  wirebin.RefSection(id),
			Tasks:  wirebin.RefSection(id),
		})
		code, ef := post(t, fw.Bytes())
		if code != http.StatusNotFound {
			t.Fatalf("unknown refs got HTTP %d, want 404", code)
		}
		want := wirebin.SecTopology | wirebin.SecAllocation | wirebin.SecTasks
		if ef.Missing != want {
			t.Fatalf("miss bitmask %b, want %b", ef.Missing, want)
		}
	})
}

// TestBinaryBatchItemLimit pins the frame-level batch cap: a forged
// item count cannot drive an oversized allocation.
func TestBinaryBatchItemLimit(t *testing.T) {
	items := make([]wirebin.BatchItem, 5000)
	for i := range items {
		items[i] = wirebin.BatchItem{Mapper: "UWH"}
	}
	fw := wirebin.GetWriter()
	defer wirebin.PutWriter(fw)
	wirebin.EncodeBatchReq(fw, &wirebin.BatchReq{
		Topo:  wirebin.FullSection(nil),
		Alloc: wirebin.FullSection(nil),
		Tasks: wirebin.FullSection(nil),
		Items: items,
	})
	msgType, payload, err := wirebin.DecodeHeader(fw.Bytes(), 64<<20)
	if err != nil || msgType != wirebin.MsgBatchRequest {
		t.Fatalf("header: type %d err %v", msgType, err)
	}
	if _, err := wirebin.DecodeBatchReq(payload); err == nil ||
		!strings.Contains(err.Error(), "item") {
		t.Fatalf("5000-item frame decoded without error: %v", err)
	}
}

// TestSolveMemo pins the solve memo: an identical repeat map request
// is answered from the result cache without a solve — across
// protocols, because both derive the same request key from canonical
// section keys and the task graph structure.
func TestSolveMemo(t *testing.T) {
	spec, _ := testTasks(48)
	srv := service.New(service.Config{})
	h := srv.Handler()
	cj := client.InProcess(h, client.WithProtocol(client.ProtoJSON))
	cb := client.InProcess(h, client.WithProtocol(client.ProtoBinary))
	req := mapReq(spec, "UWH")

	first, err := cj.Map(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	again, err := cj.Map(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("repeat request did not report a cache hit")
	}
	if again.Fingerprint != first.Fingerprint {
		t.Fatalf("memo changed the fingerprint: %q vs %q", again.Fingerprint, first.Fingerprint)
	}
	scrubMap(first)
	first.CacheHit = false
	scrubMap(again)
	again.CacheHit = false
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("memoized response diverged:\n first %+v\n again %+v", first, again)
	}

	// The binary twin of the same request must hit the memo the JSON
	// solve warmed: same canonical keys, same graph hash.
	br, err := cb.Map(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if br.Fingerprint != again.Fingerprint {
		t.Fatalf("binary fingerprint diverged: %q vs %q", br.Fingerprint, again.Fingerprint)
	}
	st := srv.Status()
	if st.SolveMemoHits != 2 || st.SolveMemoMisses != 1 {
		t.Fatalf("memo counters: hits %d misses %d, want 2/1", st.SolveMemoHits, st.SolveMemoMisses)
	}

	// Any solve knob change is a different job: new seed, new solve.
	req.Seed = 99
	if _, err := cj.Map(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if st := srv.Status(); st.SolveMemoMisses != 2 {
		t.Fatalf("changed seed should miss the memo: misses %d", st.SolveMemoMisses)
	}
}

// TestSolveMemoEquivalentRequests pins the memo for distinct requests
// that denote one placement: a different mapper spelling (the memo
// keys the lowered, uppercased mapper) and a seed-independent mapper
// at a new seed (the cached entry takes the second request key). In
// both sequences the third request repeats the second and must be
// answered from the memo, on either protocol.
func TestSolveMemoEquivalentRequests(t *testing.T) {
	spec, _ := testTasks(48)
	for _, proto := range []struct {
		name string
		p    client.Protocol
	}{{"json", client.ProtoJSON}, {"binary", client.ProtoBinary}} {
		for _, tc := range []struct {
			name       string
			seq        [3]service.MapRequest
			wantMisses int64
		}{
			{"mapper spelling", [3]service.MapRequest{mapReq(spec, "uwh"), mapReq(spec, "UWH"), mapReq(spec, "UWH")}, 1},
			{"seed-independent mapper", func() (seq [3]service.MapRequest) {
				for i, seed := range []int64{1, 2, 2} {
					seq[i] = mapReq(spec, "DEF")
					seq[i].Seed = seed
				}
				return seq
			}(), 2},
		} {
			t.Run(proto.name+"/"+tc.name, func(t *testing.T) {
				srv, c := protoClient(service.Config{}, proto.p)
				var fps [3]string
				for i, req := range tc.seq {
					resp, err := c.Map(context.Background(), req)
					if err != nil {
						t.Fatalf("request %d: %v", i, err)
					}
					fps[i] = resp.Fingerprint
				}
				if fps[1] != fps[0] || fps[2] != fps[0] {
					t.Fatalf("the requests denote one placement, got fingerprints %v", fps)
				}
				st := srv.Status()
				if st.SolveMemoMisses != tc.wantMisses || st.SolveMemoHits != 3-tc.wantMisses {
					t.Fatalf("memo counters: hits %d misses %d, want %d/%d",
						st.SolveMemoHits, st.SolveMemoMisses, 3-tc.wantMisses, tc.wantMisses)
				}
			})
		}
	}
}
