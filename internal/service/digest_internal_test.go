package service

// White-box tests of the task-graph digest: it separates near-identical
// graphs, and every result the cache holds carries the digest of its
// own graph, whichever path — /v1 map, /v2 map, a remap chain — put it
// there. The solve memo key and the result fingerprint fold the digest
// in place of the graph, so a zero or stale one would let different
// graphs share both.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	topomap "repro"
	"repro/internal/wirebin"
)

// TestTaskGraphDigestSeparates: graphs one small edit apart digest
// apart — one edge volume, one edge endpoint, two loads swapped, the
// signs of two coordinates.
func TestTaskGraphDigestSeparates(t *testing.T) {
	base := fuzzTasks(16)
	base.Loads = make([]int64, base.N)
	base.Coords = make([][]float64, base.N)
	for i := range base.Loads {
		base.Loads[i] = int64(1 + i%3)
		base.Coords[i] = []float64{float64(1 + i%4), float64(1 + i/4)}
	}
	digest := func(ts TaskGraphSpec) uint64 {
		t.Helper()
		tg, err := ts.Build()
		if err != nil {
			t.Fatal(err)
		}
		return taskGraphDigest(tg)
	}
	edit := func(change func(*TaskGraphSpec)) TaskGraphSpec {
		ts := base
		ts.Edges = append(EdgeList(nil), base.Edges...)
		ts.Loads = append([]int64(nil), base.Loads...)
		ts.Coords = make([][]float64, len(base.Coords))
		for i, row := range base.Coords {
			ts.Coords[i] = append([]float64(nil), row...)
		}
		change(&ts)
		return ts
	}
	want := digest(base)
	if again := digest(edit(func(*TaskGraphSpec) {})); again != want {
		t.Fatalf("digest not deterministic: %x vs %x", again, want)
	}
	for _, tc := range []struct {
		name   string
		change func(*TaskGraphSpec)
	}{
		{"one edge volume", func(ts *TaskGraphSpec) { ts.Edges[5][2]++ }},
		{"one edge endpoint", func(ts *TaskGraphSpec) { ts.Edges[5][1] = (ts.Edges[5][1] + 1) % int64(ts.N) }},
		{"two loads swapped", func(ts *TaskGraphSpec) { ts.Loads[0], ts.Loads[1] = ts.Loads[1], ts.Loads[0] }},
		{"two coordinate signs", func(ts *TaskGraphSpec) {
			ts.Coords[3][0], ts.Coords[9][1] = -ts.Coords[3][0], -ts.Coords[9][1]
		}},
	} {
		if got := digest(edit(tc.change)); got == want {
			t.Errorf("%s: digest %x unchanged", tc.name, got)
		}
	}
}

// TestResultEntriesCarryTheirDigest: after a /v1 map, a /v2 map of
// another graph and a two-delta remap chain off the first, every
// cached result carries taskGraphDigest of the graph it holds.
func TestResultEntriesCarryTheirDigest(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	post := func(path, contentType string, body []byte) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		r.Header.Set("Content-Type", contentType)
		h.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	postJSON := func(path string, req any) MapResponse {
		t.Helper()
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var out MapResponse
		if err := json.Unmarshal(post(path, "application/json", raw), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	topo := TopologySpec{Kind: "torus", Dims: []int{6, 6, 6}}
	alloc := AllocationSpec{SparseNodes: 8, Seed: 1}

	mapped := postJSON("/v1/map", MapRequest{Topology: topo, Allocation: alloc, Tasks: fuzzTasks(64), Mapper: "UWH", Seed: 7})

	section := func(app func(*wirebin.Writer) error) wirebin.Section {
		w := wirebin.GetWriter()
		defer wirebin.PutWriter(w)
		if err := app(w); err != nil {
			t.Fatal(err)
		}
		return wirebin.FullSection(append([]byte(nil), w.Bytes()...))
	}
	fw := wirebin.GetWriter()
	defer wirebin.PutWriter(fw)
	wirebin.EncodeMapReq(fw, &wirebin.MapReq{
		Mapper: "UWH", Seed: 7,
		Topo:  section(func(w *wirebin.Writer) error { return AppendTopologySection(w, topo) }),
		Alloc: section(func(w *wirebin.Writer) error { return AppendAllocationSection(w, alloc) }),
		Tasks: section(func(w *wirebin.Writer) error { return AppendTasksSection(w, fuzzTasks(48)) }),
	})
	post("/v2/map", wirebin.ContentType, fw.Bytes())

	fp := mapped.Fingerprint
	for _, dead := range mapped.AllocNodes[2:4] {
		fp = postJSON("/v1/remap", RemapRequest{Fingerprint: fp, Delta: topomap.AllocationDelta{Remove: []int32{dead}}}).Fingerprint
	}

	s.results.mu.Lock()
	defer s.results.mu.Unlock()
	if n := s.results.ll.Len(); n != 4 {
		t.Fatalf("result cache holds %d entries, want 4 (two maps, two remaps)", n)
	}
	for el := s.results.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*resultNode).entry
		if want := taskGraphDigest(e.tasks); e.digest != want {
			t.Errorf("entry %s (%d tasks) carries digest %x, want %x", e.fp, e.tasks.G.N(), e.digest, want)
		}
	}
}
