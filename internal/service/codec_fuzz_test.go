package service

// Fuzz targets of the /v1 JSON codec: arbitrary request bodies through
// the decoders every /v1 job passes — envelope, spec validation,
// task-graph build and engine keying. The decoders must never panic,
// and every rejection must classify as the client's error (4xx).
// FuzzTaskGraphDigest holds the /v1 and /v2 task-graph builds to one
// digest. `make fuzz-smoke` runs a few hundred executions of each;
// longer runs: `go test ./internal/service -fuzz=FuzzDecodeJSONMap
// -fuzztime=60s`.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	topomap "repro"
	"repro/internal/wirebin"
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

// FuzzTaskGraphDigest: for any task-graph spec that builds, the /v1
// build and the /v2 path — AppendTasksSection, wirebin.ParseTasks,
// taskGraphFromCSR — give equal digests. That equality is what lets a
// JSON solve warm the solve memo for its binary repeats. The inputs
// spell the spec: n tasks; one (src, dst, volume) triple per three
// edge bytes, endpoints taken mod n and volumes signed; when given,
// one signed load per task and dim (2 or 3) signed coordinates per
// task, both read cyclically from their bytes.
func FuzzTaskGraphDigest(f *testing.F) {
	ring := make([]byte, 0, 48)
	for i := byte(0); i < 16; i++ {
		ring = append(ring, i, i+1, 10, i, i+8, 3)
	}
	f.Add(uint8(16), ring, []byte(nil), []byte(nil), uint8(0))
	f.Add(uint8(16), ring, []byte{1}, []byte(nil), uint8(0))                     // unit loads
	f.Add(uint8(16), ring, []byte{1, 4, 0, 2}, []byte{1, 255, 3, 128}, uint8(1)) // loads and 3D coordinates
	f.Add(uint8(5), []byte{0, 0, 7, 1, 2, 5, 1, 2, 5, 2, 1, 9}, []byte(nil), []byte{2, 3}, uint8(0))
	f.Fuzz(func(t *testing.T, n uint8, edges, loads, coords []byte, dim uint8) {
		ts := TaskGraphSpec{N: int(n)}
		for i := 0; n > 0 && i+2 < len(edges); i += 3 {
			ts.Edges = append(ts.Edges, [3]int64{int64(edges[i] % n), int64(edges[i+1] % n), int64(int8(edges[i+2]))})
		}
		if len(loads) > 0 {
			ts.Loads = make([]int64, n)
			for i := range ts.Loads {
				ts.Loads[i] = int64(int8(loads[i%len(loads)]))
			}
		}
		if len(coords) > 0 {
			d := 2 + int(dim%2)
			ts.Coords = make([][]float64, n)
			for i := range ts.Coords {
				for k := 0; k < d; k++ {
					ts.Coords[i] = append(ts.Coords[i], float64(int8(coords[(i*d+k)%len(coords)]))/4)
				}
			}
		}
		v1, err := ts.Build()
		if err != nil {
			return
		}
		w := wirebin.GetWriter()
		defer wirebin.PutWriter(w)
		if err := AppendTasksSection(w, ts); err != nil {
			t.Fatalf("spec builds but its section does not encode: %v", err)
		}
		view, err := wirebin.ParseTasks(w.Bytes())
		if err != nil {
			t.Fatalf("section of a built spec does not parse: %v", err)
		}
		v2, err := taskGraphFromCSR(view)
		if err != nil {
			t.Fatalf("section of a built spec does not build: %v", err)
		}
		if a, b := taskGraphDigest(v1), taskGraphDigest(v2); a != b {
			t.Fatalf("/v1 digest %x, /v2 digest %x for one spec", a, b)
		}
	})
}
