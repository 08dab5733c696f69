package remap

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/routecache"
	"repro/internal/torus"
)

// table builds the route table of nodes on a 4x4x4 torus.
func table(t *testing.T, nodes ...int32) *routecache.Table {
	t.Helper()
	tab, err := routecache.New(torus.NewHopper3D(4, 4, 4), nodes)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// line4 builds a 4-task path graph 0-1-2-3 with the given edge
// weights (w01, w12, w23), symmetric.
func line4(w01, w12, w23 int64) *graph.Graph {
	us := []int32{0, 1, 1, 2, 2, 3}
	vs := []int32{1, 0, 2, 1, 3, 2}
	ws := []int64{w01, w01, w12, w12, w23, w23}
	return graph.FromEdges(4, us, vs, ws, nil)
}

func TestPatchPlacementKeepsSurvivors(t *testing.T) {
	sym := line4(10, 1, 10)
	// Old: tasks 0,1 on node 5 (group 0); tasks 2,3 on node 9 (group 1).
	// Node 9 dies; node 7 arrives. Tasks 2,3 must migrate, 0,1 stay.
	plan, err := PatchPlacement(Instance{
		Sym:        sym,
		Table:      table(t, 5, 7),
		OldGroupOf: []int32{0, 0, 1, 1},
		OldNodeOf:  []int32{5, 9},
		NewCaps:    []int64{2, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan.NodeOf, []int32{5, 7}) {
		t.Fatalf("NodeOf = %v, want identity [5 7]", plan.NodeOf)
	}
	if plan.GroupOf[0] != 0 || plan.GroupOf[1] != 0 {
		t.Fatalf("surviving tasks moved: %v", plan.GroupOf)
	}
	if plan.GroupOf[2] != 1 || plan.GroupOf[3] != 1 {
		t.Fatalf("stranded tasks not placed on the only free node: %v", plan.GroupOf)
	}
	if len(plan.Stranded) != 2 {
		t.Fatalf("stranded = %v, want tasks 2 and 3", plan.Stranded)
	}
}

func TestPatchPlacementEvictsLoosestAttached(t *testing.T) {
	// All four tasks on node 5; capacity drops to 3. Task 2's internal
	// attachment (1+10) beats task 0's (10) and task 3's (10), and
	// task 1's is highest (10+1) — the evictee is the loosest-attached
	// with ties to the lowest id: attachments are 0:10 1:11 2:11 3:10,
	// so task 0 leaves.
	plan, err := PatchPlacement(Instance{
		Sym:        line4(10, 1, 10),
		Table:      table(t, 5, 7),
		OldGroupOf: []int32{0, 0, 0, 0},
		OldNodeOf:  []int32{5},
		NewCaps:    []int64{3, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan.Stranded, []int32{0}) {
		t.Fatalf("stranded = %v, want [0]", plan.Stranded)
	}
	if plan.GroupOf[0] != 1 {
		t.Fatalf("evicted task placed on group %d, want the free node", plan.GroupOf[0])
	}
}

func TestPatchPlacementRejectsBadPrev(t *testing.T) {
	// Two old groups on the same node: not a bijection.
	_, err := PatchPlacement(Instance{
		Sym:        line4(1, 1, 1),
		Table:      table(t, 5, 7),
		OldGroupOf: []int32{0, 0, 1, 1},
		OldNodeOf:  []int32{5, 5},
		NewCaps:    []int64{2, 2},
	})
	if err == nil {
		t.Fatal("duplicate old node accepted")
	}
	// More tasks than post-delta capacity.
	_, err = PatchPlacement(Instance{
		Sym:        line4(1, 1, 1),
		Table:      table(t, 5),
		OldGroupOf: []int32{0, 0, 1, 1},
		OldNodeOf:  []int32{5, 9},
		NewCaps:    []int64{2},
	})
	if err == nil {
		t.Fatal("over-capacity instance accepted")
	}
}
