package service

// Fuzz targets of the /v1 JSON codec: arbitrary request bodies through
// the decoders every /v1 job passes — envelope, spec validation,
// task-graph build and engine keying. The decoders must never panic,
// and every rejection must classify as the client's error (4xx).
// `make fuzz-smoke` runs a few hundred executions of each; longer
// runs: `go test ./internal/service -fuzz=FuzzDecodeJSONMap
// -fuzztime=60s`.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	topomap "repro"
)

// fuzzTasks is the ring-with-chords graph the service tests map.
func fuzzTasks(n int) TaskGraphSpec {
	spec := TaskGraphSpec{N: n}
	for i := 0; i < n; i++ {
		spec.Edges = append(spec.Edges, [3]int64{int64(i), int64((i + 1) % n), 10}, [3]int64{int64(i), int64((i + n/2) % n), 3})
	}
	return spec
}

// addEnvelopeSeeds seeds f with req spelled two more ways: indented,
// and with a longer "edges" key ahead of its own, so the second decode
// lands in an already-decoded slice. Both walk EdgeList's scan through
// the real envelope.
func addEnvelopeSeeds(f *testing.F, req any) {
	indented, err := json.MarshalIndent(req, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	raw, err := json.Marshal(req)
	if err != nil {
		f.Fatal(err)
	}
	longer, err := json.Marshal(fuzzTasks(128).Edges)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(indented)
	f.Add(bytes.Replace(raw, []byte(`"edges":`), slices.Concat([]byte(`"edges":`), longer, []byte(`,"edges":`)), 1))
}

// fuzzDecode seeds f with the marshalled requests and checks the
// decoder's contract on every input.
func fuzzDecode(f *testing.F, decode func(jsonCodec) func(http.ResponseWriter, *http.Request) (*job, error), seeds ...any) {
	for _, seed := range seeds {
		raw, err := json.Marshal(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"topology":{"kind":"torus","dims":[6,6,6]},"allocation":{"sparse_nodes":8,"seed":1},"tasks":{"n":4,"edges":[[0,1,10]]},"mapper":"UWH","bogus":1}`))
	s := New(Config{})
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
		if _, err := decode(jsonCodec{s})(httptest.NewRecorder(), r); err != nil {
			if status, _ := s.classify(err); status < 400 || status >= 500 {
				t.Fatalf("rejection %q classified %d, want 4xx", err, status)
			}
		}
	})
}

func FuzzDecodeJSONMap(f *testing.F) {
	tasks := fuzzTasks(64)
	coords := fuzzTasks(16)
	for i := 0; i < coords.N; i++ {
		coords.Coords = append(coords.Coords, []float64{float64(i % 4), float64(i / 4)})
		coords.Loads = append(coords.Loads, int64(1+i%3))
	}
	req := MapRequest{
		Topology:   TopologySpec{Kind: "torus", Dims: []int{6, 6, 6}},
		Allocation: AllocationSpec{SparseNodes: 8, Seed: 1},
		Tasks:      tasks, Mapper: "UWH", Seed: 7, Trace: true, Rankfile: true,
	}
	addEnvelopeSeeds(f, req)
	fuzzDecode(f, func(c jsonCodec) func(http.ResponseWriter, *http.Request) (*job, error) { return c.decodeMap },
		req,
		MapRequest{
			Topology:   TopologySpec{Kind: "fattree", K: 8},
			Allocation: AllocationSpec{Nodes: []int32{3, 17, 41, 90}, ProcsPerNode: []int{4}, Speeds: []float64{1, 2, 1, 2}},
			Tasks:      coords, Mapper: "geom", Refine: true, Balance: true, Parallelism: 2,
		},
		MapRequest{
			Topology:   TopologySpec{Kind: "dragonfly", H: 3},
			Allocation: AllocationSpec{SparseNodes: 4, Seed: 2},
			Tasks:      tasks, Mapper: "UMC", Seed: 9, TimeoutMS: 50,
		})
}

func FuzzDecodeJSONRemap(f *testing.F) {
	fuzzDecode(f, func(c jsonCodec) func(http.ResponseWriter, *http.Request) (*job, error) { return c.decodeRemap },
		RemapRequest{Fingerprint: "map:nope", Delta: topomap.AllocationDelta{Remove: []int32{1}}},
		RemapRequest{
			Fingerprint: "map:1f",
			Delta: topomap.AllocationDelta{
				Remove:      []int32{3},
				Add:         []topomap.NodeCapacity{{Node: 7, Procs: 16}},
				SetCapacity: []topomap.NodeCapacity{{Node: 17, Procs: 8}},
			},
			Solve:          topomap.Solve{Mapper: "UWH", Seed: 7, Trace: true},
			Objective:      topomap.MinimizeMetric("mc"),
			FenceThreshold: 0.1, Rankfile: true, Parallelism: 2,
		})
}

func FuzzDecodeJSONPortfolio(f *testing.F) {
	req := PortfolioRequest{
		Topology:   TopologySpec{Kind: "torus", Dims: []int{6, 6, 6}},
		Allocation: AllocationSpec{SparseNodes: 8, Seed: 1},
		Tasks:      fuzzTasks(64),
		Candidates: []topomap.Solve{{Mapper: "UWH", Seed: 1}, {Mapper: "UMC", Seed: 1, Refine: true}, {Mapper: "DEF"}},
		Objective:  topomap.MinimizeMetric("mc"),
	}
	addEnvelopeSeeds(f, req)
	fuzzDecode(f, func(c jsonCodec) func(http.ResponseWriter, *http.Request) (*job, error) { return c.decodePortfolio },
		req,
		PortfolioRequest{
			Topology:   TopologySpec{Kind: "fattree", K: 4},
			Allocation: AllocationSpec{SparseNodes: 4, Seed: 3},
			Tasks:      fuzzTasks(16), Seed: 5, Parallelism: 2, Rankfile: true,
		})
}
