package topomap

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// Solve-spec tests: the declarative Solve must serialize losslessly,
// and a Solve that crossed the JSON codec — the wire path — must run
// byte-identically to the same Solve held in memory: the conservation
// law of having one request shape.

// TestSolveJSONRoundTrip: a fully populated Solve survives the JSON
// codec field for field, and a minimal one marshals minimally.
func TestSolveJSONRoundTrip(t *testing.T) {
	want := Solve{
		Mapper:     UMC,
		Seed:       42,
		Refine:     true,
		FineRefine: true,
		Workers:    4,
		Trace:      true,
		Sim:        &SimSpec{BytesPerUnit: 4096, Params: SimParams{Seed: 7, NoiseSigma: 0.02}},
	}
	buf, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got Solve
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\n want %+v\n got  %+v", want, got)
	}
	// Zero knobs stay off the wire: a minimal solve is a minimal
	// payload, not a field-by-field mirror of every option.
	minimal, err := json.Marshal(Solve{Mapper: UWH})
	if err != nil {
		t.Fatal(err)
	}
	if string(minimal) != `{"mapper":"UWH"}` {
		t.Fatalf("minimal solve marshals as %s", minimal)
	}
}

// TestRunSolveMatchesRequestPath is the wire-equivalence gate: for
// every registered mapper and every knob combination, a Solve that
// took a trip through the JSON codec — as a mapd request carries it —
// produces byte-identical results to the same Solve passed in memory.
func TestRunSolveMatchesRequestPath(t *testing.T) {
	tg, topo, a := engineFixture(t, 128)
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	sim := &SimSpec{BytesPerUnit: 4096, Params: SimParams{Seed: 1}}
	variants := []struct {
		name string
		s    Solve
	}{
		{"plain", Solve{}},
		{"refine", Solve{Refine: true}},
		{"fine", Solve{FineRefine: true}},
		{"sim", Solve{Sim: sim}},
		{"all", Solve{Refine: true, FineRefine: true, Workers: 2, Sim: sim}},
	}
	tgc := withTestCoords(t, tg)
	ctx := context.Background()
	for _, mp := range RegisteredMappers() {
		if strings.HasPrefix(string(mp), "TEST-") {
			continue // registered by other tests in this binary
		}
		tasks := tg
		if MapperCapsOf(mp).NeedsCoords {
			tasks = tgc
		}
		for _, v := range variants {
			s := v.s
			s.Mapper, s.Seed = mp, 3
			want, err := eng.RunSolve(ctx, tasks, s)
			if err != nil {
				t.Fatalf("%s/%s: in-memory solve: %v", mp, v.name, err)
			}
			buf, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			var wire Solve
			if err := json.Unmarshal(buf, &wire); err != nil {
				t.Fatal(err)
			}
			got, err := eng.RunSolve(ctx, tasks, wire)
			if err != nil {
				t.Fatalf("%s/%s: wire solve: %v", mp, v.name, err)
			}
			if !reflect.DeepEqual(got.GroupOf, want.GroupOf) ||
				!reflect.DeepEqual(got.NodeOf, want.NodeOf) {
				t.Fatalf("%s/%s: placement diverged between wire and in-memory Solve", mp, v.name)
			}
			if got.Metrics != want.Metrics {
				t.Fatalf("%s/%s: metrics diverged:\n in-memory %+v\n wire      %+v", mp, v.name, want.Metrics, got.Metrics)
			}
			if got.FineWHGain != want.FineWHGain || got.FineVolGain != want.FineVolGain {
				t.Fatalf("%s/%s: fine-refine gains diverged", mp, v.name)
			}
			if got.SimSeconds != want.SimSeconds {
				t.Fatalf("%s/%s: sim seconds diverged: %g vs %g", mp, v.name, got.SimSeconds, want.SimSeconds)
			}
		}
	}
}
