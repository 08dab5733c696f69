package torus

import "fmt"

// LinkTable is the directed link table of a switched network (the fat
// tree, the dragonfly): a CSR adjacency over the network's vertices
// whose positions are the directed link ids, so row u lists u's
// neighbours and the link u→adj[i] has id i. A network embeds it for
// the Links, LinkBW and NeighborNodes of torus.Topology.
type LinkTable struct {
	xadj []int32
	adj  []int32
	bw   []float64 // per directed link
}

// NewLinkTable builds the link table of a network of n vertices. each
// enumerates the physical links, calling link(u, v, bw) once per
// bidirectional link of bandwidth bw per direction; NewLinkTable walks
// it twice, once to count degrees and once to fill the rows. Link u–v
// appends v to u's row, then u to v's row, so a link's ids follow the
// enumeration order.
func NewLinkTable(n int, each func(link func(u, v int, bw float64))) LinkTable {
	xadj := make([]int32, n+1)
	each(func(u, v int, _ float64) {
		xadj[u+1]++
		xadj[v+1]++
	})
	for v := 0; v < n; v++ {
		xadj[v+1] += xadj[v]
	}
	lt := LinkTable{xadj: xadj, adj: make([]int32, xadj[n]), bw: make([]float64, xadj[n])}
	fill := append([]int32(nil), xadj[:n]...)
	put := func(u, v int, bw float64) {
		lt.adj[fill[u]] = int32(v)
		lt.bw[fill[u]] = bw
		fill[u]++
	}
	each(func(u, v int, bw float64) {
		put(u, v, bw)
		put(v, u, bw)
	})
	return lt
}

// Links returns the number of directed links.
func (lt *LinkTable) Links() int { return len(lt.adj) }

// LinkBW returns a directed link's bandwidth.
func (lt *LinkTable) LinkBW(link int) float64 { return lt.bw[link] }

// LinkInfo decodes a directed link id into its endpoints.
func (lt *LinkTable) LinkInfo(link int) (from, to int) {
	// Binary search the row holding the link.
	lo, hi := 0, len(lt.xadj)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if int(lt.xadj[mid]) <= link {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, int(lt.adj[link])
}

// NeighborNodes appends the vertices adjacent to v.
func (lt *LinkTable) NeighborNodes(v int, dst []int32) []int32 {
	return append(dst, lt.adj[lt.xadj[v]:lt.xadj[v+1]]...)
}

// LinkID returns the directed link id u→v; u and v must be adjacent.
func (lt *LinkTable) LinkID(u, v int) int32 {
	for i := lt.xadj[u]; i < lt.xadj[u+1]; i++ {
		if lt.adj[i] == int32(v) {
			return i
		}
	}
	panic(fmt.Sprintf("torus: vertices %d and %d are not adjacent", u, v))
}
