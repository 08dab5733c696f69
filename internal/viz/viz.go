// Package viz renders text diagnostics of a mapping: per-link
// congestion histograms, the hottest links with their endpoints, and
// allocation/placement maps of torus slices. These are the operator
// tools of the library — the quickest way to see *where* a mapping
// concentrates traffic, not just its aggregate metrics. The per-link
// panels route nothing themselves: they read the volume and message
// count of every link from metrics.LinkTraffic, the pass the MC and
// MMC metrics are computed from.
package viz

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/alloc"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/torus"
)

// histogramBars is the rendered width of the largest bucket.
const histogramBars = 50

// CongestionHistogram writes an ASCII histogram of the volume
// congestion (load/bandwidth) of the used links, in the given number
// of equal-width buckets. It reports the spread the MC/AC metrics
// summarize: a good congestion refinement shortens the right tail.
func CongestionHistogram(w io.Writer, tg *graph.Graph, topo torus.Topology, pl *metrics.Placement, buckets int) error {
	if buckets < 1 {
		return fmt.Errorf("viz: need at least one bucket")
	}
	var vcs []float64
	maxVC := 0.0
	for l, tr := range metrics.LinkTraffic(tg, topo, pl) {
		if tr.Vol == 0 {
			continue
		}
		vc := float64(tr.Vol) / topo.LinkBW(l)
		vcs = append(vcs, vc)
		if vc > maxVC {
			maxVC = vc
		}
	}
	if len(vcs) == 0 {
		_, err := fmt.Fprintln(w, "no network traffic")
		return err
	}
	counts := make([]int, buckets)
	for _, vc := range vcs {
		b := int(float64(buckets) * vc / maxVC)
		if b == buckets {
			b--
		}
		counts[b]++
	}
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	fmt.Fprintf(w, "link volume congestion over %d used links (max %.4g s)\n", len(vcs), maxVC)
	for b := 0; b < buckets; b++ {
		lo := maxVC * float64(b) / float64(buckets)
		hi := maxVC * float64(b+1) / float64(buckets)
		bar := strings.Repeat("#", counts[b]*histogramBars/maxCount)
		if _, err := fmt.Fprintf(w, "[%8.3g,%8.3g) %6d %s\n", lo, hi, counts[b], bar); err != nil {
			return err
		}
	}
	return nil
}

// HotLink describes one of the most congested links.
type HotLink struct {
	Link     int
	From, To int
	Volume   int64
	Messages int64
	VC       float64 // volume / bandwidth, seconds
}

// TopLinks returns the n most volume-congested links, hottest first
// (ties broken by link id for determinism).
func TopLinks(tg *graph.Graph, topo torus.Topology, pl *metrics.Placement, n int) []HotLink {
	// Endpoint decoding: the torus exposes (from, dim, dir, to); the
	// indirect topologies (fat tree, dragonfly) expose (from, to).
	type linkInfo2 interface{ LinkInfo(int) (int, int) }
	var hot []HotLink
	for l, tr := range metrics.LinkTraffic(tg, topo, pl) {
		if tr.Vol == 0 {
			continue
		}
		hl := HotLink{Link: l, Volume: tr.Vol, Messages: tr.Count, VC: float64(tr.Vol) / topo.LinkBW(l)}
		switch tp := topo.(type) {
		case *torus.Torus:
			hl.From, _, _, hl.To = tp.LinkInfo(l)
		case linkInfo2:
			hl.From, hl.To = tp.LinkInfo(l)
		default:
			hl.From, hl.To = -1, -1
		}
		hot = append(hot, hl)
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].VC != hot[j].VC {
			return hot[i].VC > hot[j].VC
		}
		return hot[i].Link < hot[j].Link
	})
	if n < len(hot) {
		hot = hot[:n]
	}
	return hot
}

// FprintTopLinks renders TopLinks as a table with torus coordinates.
func FprintTopLinks(w io.Writer, tg *graph.Graph, topo *torus.Torus, pl *metrics.Placement, n int) error {
	hot := TopLinks(tg, topo, pl, n)
	if len(hot) == 0 {
		_, err := fmt.Fprintln(w, "no network traffic")
		return err
	}
	fmt.Fprintf(w, "%-6s %-16s %-16s %12s %10s %12s\n", "link", "from", "to", "volume", "messages", "VC(s)")
	for _, h := range hot {
		if _, err := fmt.Fprintf(w, "%-6d %-16s %-16s %12d %10d %12.4g\n",
			h.Link, coordString(topo, h.From), coordString(topo, h.To),
			h.Volume, h.Messages, h.VC); err != nil {
			return err
		}
	}
	return nil
}

func coordString(t *torus.Torus, node int) string {
	if node < 0 {
		return "?"
	}
	c := t.Coord(node, nil)
	parts := make([]string, len(c))
	for i, v := range c {
		parts[i] = fmt.Sprint(v)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// SliceMap renders the z-slice of a 3D torus as a character grid:
// '.' free node, 'o' allocated but empty, letters/'#' for nodes
// hosting supertasks (the letter scales with the node's share of the
// slice's hosted communication volume: a..z light to heavy). It
// shows, at a glance, how compact an allocation is and where the
// mapping put the heavy supertasks.
func SliceMap(w io.Writer, topo *torus.Torus, a *alloc.Allocation, coarse *graph.Graph, nodeOf []int32, z int) error {
	dims := topo.Dims()
	if len(dims) != 3 {
		return fmt.Errorf("viz: SliceMap needs a 3D torus, have %dD", len(dims))
	}
	if z < 0 || z >= dims[2] {
		return fmt.Errorf("viz: slice z=%d out of [0,%d)", z, dims[2])
	}
	allocated := map[int32]bool{}
	for _, m := range a.Nodes {
		allocated[m] = true
	}
	// Volume hosted per node.
	hostVol := map[int32]int64{}
	var maxVol int64
	for v := 0; v < coarse.N(); v++ {
		var vol int64
		for _, wt := range coarse.Weights(v) {
			vol += wt
		}
		hostVol[nodeOf[v]] = vol
		if vol > maxVol {
			maxVol = vol
		}
	}
	fmt.Fprintf(w, "z=%d slice (%dx%d): '.' free  'o' allocated  a..z hosting (by volume)\n", z, dims[0], dims[1])
	for y := dims[1] - 1; y >= 0; y-- {
		var sb strings.Builder
		for x := 0; x < dims[0]; x++ {
			node := int32(topo.NodeAt([]int{x, y, z}))
			ch := byte('.')
			if allocated[node] {
				ch = 'o'
			}
			if vol, ok := hostVol[node]; ok {
				if maxVol == 0 {
					ch = 'a'
				} else {
					ch = byte('a' + int(25*vol/maxVol))
				}
			}
			sb.WriteByte(ch)
			sb.WriteByte(' ')
		}
		if _, err := fmt.Fprintln(w, sb.String()); err != nil {
			return err
		}
	}
	return nil
}
