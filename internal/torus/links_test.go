package torus

import (
	"slices"
	"testing"
)

// TestLinkTableIDOrder: link u–v gets id u's next row slot for u→v
// and v's next row slot for v→u, in enumeration order, so ids are
// fixed by the order the network lists its links.
func TestLinkTableIDOrder(t *testing.T) {
	// A path 0–1–2 plus a chord 2–0, at three bandwidths.
	lt := NewLinkTable(3, func(link func(u, v int, bw float64)) {
		link(0, 1, 10)
		link(1, 2, 20)
		link(2, 0, 30)
	})
	if lt.Links() != 6 {
		t.Fatalf("%d directed links, want 6", lt.Links())
	}
	want := []struct {
		from, to int
		bw       float64
	}{
		{0, 1, 10}, {0, 2, 30}, // row 0: 0→1, then 0→2 from the chord
		{1, 0, 10}, {1, 2, 20}, // row 1
		{2, 1, 20}, {2, 0, 30}, // row 2
	}
	for l, w := range want {
		if from, to := lt.LinkInfo(l); from != w.from || to != w.to {
			t.Fatalf("link %d = %d→%d, want %d→%d", l, from, to, w.from, w.to)
		}
		if bw := lt.LinkBW(l); bw != w.bw {
			t.Fatalf("link %d bandwidth %g, want %g", l, bw, w.bw)
		}
		if got := lt.LinkID(w.from, w.to); got != int32(l) {
			t.Fatalf("LinkID(%d, %d) = %d, want %d", w.from, w.to, got, l)
		}
	}
	if nb := lt.NeighborNodes(2, []int32{7}); !slices.Equal(nb, []int32{7, 1, 0}) {
		t.Fatalf("NeighborNodes(2) appended %v, want [7 1 0]", nb)
	}
}
