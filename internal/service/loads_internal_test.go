package service

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	topomap "repro"
	"repro/internal/wirebin"
)

// TestUnitLoadsRule: every wire entry that reads per-task loads — the
// /v1 task spec, a /v2 tasks section and a task-graph file — applies
// TaskGraph.SetLoads. Loads that are all 1 leave G.VW nil, so the
// graph hashes like the same graph without loads; any other vector is
// kept whole; a negative load is refused. cmd/mapper's -loads flag,
// the fourth entry, is held to the same rule by its own test.
func TestUnitLoadsRule(t *testing.T) {
	// A 4-task ring, CSR form for the /v2 section.
	xadj := []int32{0, 1, 2, 3, 4}
	adj := []int32{1, 2, 3, 0}
	ew := []int64{5, 5, 5, 5}
	spec := TaskGraphSpec{N: 4, Edges: EdgeList{{0, 1, 5}, {1, 2, 5}, {2, 3, 5}, {3, 0, 5}}}
	entries := []struct {
		name  string
		build func(loads []int64) (*topomap.TaskGraph, error)
	}{
		{"/v1 spec", func(loads []int64) (*topomap.TaskGraph, error) {
			s := spec
			s.Loads = loads
			return s.Build()
		}},
		{"/v2 tasks section", func(loads []int64) (*topomap.TaskGraph, error) {
			w := wirebin.GetWriter()
			defer wirebin.PutWriter(w)
			wirebin.AppendTasksCSR(w, xadj, adj, ew, loads, nil, 0)
			view, err := wirebin.ParseTasks(w.Bytes())
			if err != nil {
				return nil, err
			}
			return taskGraphFromCSR(view)
		}},
		{"task-graph file", func(loads []int64) (*topomap.TaskGraph, error) {
			var sb strings.Builder
			for v, l := range loads {
				fmt.Fprintf(&sb, "# load %d %d\n", v, l)
			}
			for _, e := range spec.Edges {
				fmt.Fprintf(&sb, "%d %d %d\n", e[0], e[1], e[2])
			}
			return topomap.ReadTaskGraph(strings.NewReader(sb.String()))
		}},
	}
	hash := func(tg *topomap.TaskGraph) wirebin.Hash64 { return hashTaskGraph(wirebin.Hash64Init, tg) }
	for _, e := range entries {
		plain, err := e.build(nil)
		if err != nil {
			t.Fatalf("%s without loads: %v", e.name, err)
		}
		unit, err := e.build([]int64{1, 1, 1, 1})
		if err != nil {
			t.Fatalf("%s, all-ones loads: %v", e.name, err)
		}
		if unit.G.VW != nil || hash(unit) != hash(plain) {
			t.Fatalf("%s: all-ones loads kept VW=%v; want nil and the hash of the graph without loads", e.name, unit.G.VW)
		}
		mixed, err := e.build([]int64{1, 4, 0, 2})
		if err != nil {
			t.Fatalf("%s, mixed loads: %v", e.name, err)
		}
		if want := []int64{1, 4, 0, 2}; !reflect.DeepEqual(mixed.G.VW, want) || hash(mixed) == hash(plain) {
			t.Fatalf("%s: mixed loads read as VW=%v, want %v and a hash of their own", e.name, mixed.G.VW, want)
		}
		if _, err := e.build([]int64{1, -3, 1, 1}); err == nil || !strings.Contains(err.Error(), "negative load") {
			t.Fatalf("%s: negative load: err = %v, want a refusal", e.name, err)
		}
	}
}
