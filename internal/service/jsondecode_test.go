package service

// The /v1 decode layer: readJSON's one-object rule, and EdgeList,
// which decodes exactly as its underlying [][3]int64 does under
// encoding/json. The EdgeList tests hold the two equal on the same
// bytes: the table pins which shapes take the reflection-free scan and
// which fall back, and FuzzEdgeList walks the space between them.
// `make fuzz-smoke` runs a few hundred executions; longer runs:
// `go test ./internal/service -fuzz=FuzzEdgeList -fuzztime=60s`.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	topomap "repro"
)

// edgeListShapes are edge-list values and whether the scan takes them
// (fast) or hands them to encoding/json.
var edgeListShapes = []struct {
	in   string
	fast bool
}{
	{`[]`, true},
	{"[ \t\r\n]", true},
	{`[[0,1,1]]`, true},
	{`[[0,1,10],[1,2,3],[2,0,5]]`, true},
	{"\n[\n\t[ 0 ,\r1,\n2 ] ,[3 ,4, 5]\n]\n", true},
	{`[[-0,0,-1]]`, true},
	{`[[9223372036854775807,-9223372036854775808,1]]`, true},
	{`[[1000000000000000000,-999999999999999999,7]]`, true},

	{`null`, false},
	{`[null]`, false},
	{`[[1,2,3],null]`, false},
	{`[[0,1,null]]`, false},
	{`[[]]`, false},
	{`[[0,1]]`, false},
	{`[[0,1,2,3]]`, false},
	{`[[0,1,2,"x"]]`, false},
	{`[[0,1,2,"[[[[[[[["]]`, false},
	{`[[1,2,3],[4,5,6,[7]]]`, false},
	{`[[0,1,1.5]]`, false},
	{`[[0,1,1.0]]`, false},
	{`[[0,1,-0.0]]`, false},
	{`[[0,1,1e2]]`, false},
	{`[[0,1,1E+2]]`, false},
	{`[[0,1,9223372036854775808]]`, false},
	{`[[0,1,-9223372036854775809]]`, false},
	{`[[0,1,99999999999999999999]]`, false},
	{`[[0,1,"2"]]`, false},
	{`[["0",1,2]]`, false},
	{`[[true,1,2]]`, false},
	{`"edges"`, false},
	{`{}`, false},
	{`5`, false},
	{`true`, false},
}

// edgeListRepeats follow the first edges value with a repeated key,
// so the second decode lands in an already-decoded slice.
var edgeListRepeats = []string{
	`[[1,1,1]],"E":[null,null]`,
	`[[3,4,5],[6,7,8]],"E":[[1,2]]`,
	`[[1,2]],"E":[[3,4,5],[6,7,8]]`,
	`[[9,9,9],[9,9,9],[9,9,9],[9,9,9]],"E":[[1,2,3]],"E":[null,[4],null]`,
	`[[0,1,"x"]],"E":[[1,2,3]]`,
	`[[1,2,3]],"E":null`,
	`[[1,2,3]],"E":[]`,
	`[[1,2,3]],"e":[[4,5,6]]`,
}

// checkEdgeList decodes `{"E":` in `}` into a [][3]int64 field and an
// EdgeList field, each fresh and each pre-filled, and fails on any
// difference in acceptance, error text, value (nil and empty told
// apart) or re-encoded bytes. A rejected value is not compared:
// encoding/json stops at an Unmarshaler's error but decodes on past
// its own type errors, and readJSON discards a rejected request.
func checkEdgeList(t *testing.T, in []byte) {
	t.Helper()
	body := slices.Concat([]byte(`{"E":`), in, []byte(`}`))
	for _, prefill := range [][][3]int64{nil, {{5, 6, 7}, {8, 9, 10}, {11, 12, 13}}} {
		var want struct{ E [][3]int64 }
		var got struct{ E EdgeList }
		if prefill != nil {
			// Spare capacity lets a shorter decode leave stale triples
			// past its length for a repeated key to expose.
			want.E = append(make([][3]int64, 0, 8), prefill...)
			got.E = append(make(EdgeList, 0, 8), prefill...)
		}
		werr, gerr := json.Unmarshal(body, &want), json.Unmarshal(body, &got)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%q (prefilled %t): encoding/json err %v, EdgeList err %v", in, prefill != nil, werr, gerr)
		}
		if werr != nil {
			if werr.Error() != gerr.Error() {
				t.Fatalf("%q (prefilled %t): error text differs:\nencoding/json: %s\nEdgeList:      %s", in, prefill != nil, werr, gerr)
			}
			continue
		}
		if !reflect.DeepEqual(want.E, [][3]int64(got.E)) || (want.E == nil) != (got.E == nil) {
			t.Fatalf("%q (prefilled %t): encoding/json decoded %#v, EdgeList %#v", in, prefill != nil, want.E, got.E)
		}
		wb, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb, gb) {
			t.Fatalf("%q (prefilled %t): re-encoded %s, EdgeList %s", in, prefill != nil, wb, gb)
		}
	}
}

// TestEdgeListScan pins which shapes take the reflection-free scan.
// FuzzEdgeList, seeded with the same shapes, holds each one to
// encoding/json's decode on every `go test`.
func TestEdgeListScan(t *testing.T) {
	for _, c := range edgeListShapes {
		if _, fast := scanEdges([]byte(c.in)); fast != c.fast {
			t.Errorf("%q: scan took it %t, want %t", c.in, fast, c.fast)
		}
	}
	// encoding/json validates a value before it calls an Unmarshaler;
	// a direct call on invalid bytes still fails with its syntax error.
	for _, in := range []string{`[[01,2,3]]`, `[[-,1,2]]`, `[[1,2,3],]`, `[[1,2,3]] x`, `[[1,2,3]`} {
		var want [][3]int64
		var got EdgeList
		werr, gerr := json.Unmarshal([]byte(in), &want), got.UnmarshalJSON([]byte(in))
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Errorf("%q: encoding/json err %v, EdgeList err %v", in, werr, gerr)
		}
	}
}

func FuzzEdgeList(f *testing.F) {
	for _, c := range edgeListShapes {
		f.Add([]byte(c.in))
	}
	for _, in := range edgeListRepeats {
		f.Add([]byte(in))
	}
	f.Fuzz(checkEdgeList)
}

// TestEdgeListCapacityBound: '[' bytes inside a string must not size
// the slice past the most a canonical array of the same length holds.
// The fallback discards the sized slice, so the bound is checked on
// the sizing itself; a canonical array is sized exactly, once.
func TestEdgeListCapacityBound(t *testing.T) {
	in := []byte(`[[0,1,1,"` + strings.Repeat("[", 1<<20) + `"]]`)
	if c, limit := edgeCapacity(in), len(in)/8+1; c > limit {
		t.Fatalf("reserved %d edges for a %d-byte value, limit %d", c, len(in), limit)
	}
	checkEdgeList(t, in)

	raw, err := json.Marshal(fuzzTasks(512).Edges)
	if err != nil {
		t.Fatal(err)
	}
	var e EdgeList
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	if len(e) != 1024 || cap(e) != len(e) {
		t.Fatalf("canonical array of 1024 edges decoded to len %d cap %d", len(e), cap(e))
	}
}

// TestReadJSONRejectsTrailingData: a /v1 body is one request object.
// Trailing bytes other than whitespace — garbage, a stray bracket, a
// second object that would otherwise be dropped — are a 400 naming
// the trailing data, on every /v1 decoder.
func TestReadJSONRejectsTrailingData(t *testing.T) {
	tasks := fuzzTasks(16)
	topo := TopologySpec{Kind: "torus", Dims: []int{4, 4, 4}}
	alloc := AllocationSpec{SparseNodes: 4, Seed: 1}
	decoders := []struct {
		name   string
		decode func(jsonCodec) func(http.ResponseWriter, *http.Request) (*job, error)
		req    any
	}{
		{"map", func(c jsonCodec) func(http.ResponseWriter, *http.Request) (*job, error) { return c.decodeMap },
			MapRequest{Topology: topo, Allocation: alloc, Tasks: tasks, Mapper: "UWH"}},
		{"batch", func(c jsonCodec) func(http.ResponseWriter, *http.Request) (*job, error) { return c.decodeBatch },
			BatchRequest{Topology: topo, Allocation: alloc, Tasks: tasks, Requests: []BatchItem{{Mapper: "UWH"}, {Mapper: "DEF"}}}},
		{"remap", func(c jsonCodec) func(http.ResponseWriter, *http.Request) (*job, error) { return c.decodeRemap },
			RemapRequest{Fingerprint: "map:1f", Delta: topomap.AllocationDelta{Remove: []int32{1}}}},
		{"portfolio", func(c jsonCodec) func(http.ResponseWriter, *http.Request) (*job, error) { return c.decodePortfolio },
			PortfolioRequest{Topology: topo, Allocation: alloc, Tasks: tasks, Candidates: []topomap.Solve{{Mapper: "UWH"}, {Mapper: "DEF"}}}},
	}
	s := New(Config{})
	for _, d := range decoders {
		body, err := json.Marshal(d.req)
		if err != nil {
			t.Fatal(err)
		}
		run := func(suffix string) error {
			r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(slices.Concat(body, []byte(suffix))))
			_, err := d.decode(jsonCodec{s})(httptest.NewRecorder(), r)
			return err
		}
		for _, suffix := range []string{"", "\n", " \r\n\t "} {
			if err := run(suffix); err != nil {
				t.Errorf("%s with trailing %q: %v", d.name, suffix, err)
			}
		}
		for _, suffix := range []string{" trailing garbage", "]", "}", `{"mapper":"DEF"}`, "\n0", ","} {
			err := run(suffix)
			if err == nil || !strings.Contains(err.Error(), "trailing data") {
				t.Errorf("%s with trailing %q: got %v, want a trailing-data rejection", d.name, suffix, err)
				continue
			}
			if status, _ := s.classify(err); status != http.StatusBadRequest {
				t.Errorf("%s with trailing %q: classified %d, want 400", d.name, suffix, status)
			}
		}
	}
}
