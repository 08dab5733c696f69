package metrics

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fattree"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/routecache"
	"repro/internal/torus"
)

// oracleState is the per-edge evaluation Compute replaced, kept as the
// reference: every fine edge is routed on its own, and the receive
// totals are keyed by node in maps.
type oracleState struct {
	th, wh, icv, icm int64
	msgCong, volCong []int64
	recvVol, recvMsg map[int32]int64
}

func (st *oracleState) accumulate(tg *graph.Graph, topo torus.Topology, pl *Placement) {
	var route []int32
	for t := 0; t < tg.N(); t++ {
		a := pl.Node(int32(t))
		for i := tg.Xadj[t]; i < tg.Xadj[t+1]; i++ {
			u := tg.Adj[i]
			b := pl.Node(u)
			if a == b {
				continue
			}
			w := tg.EdgeWeight(int(i))
			hops := int64(topo.HopDist(int(a), int(b)))
			st.th += hops
			st.wh += hops * w
			st.icv += w
			st.icm++
			st.recvVol[b] += w
			st.recvMsg[b]++
			route = topo.Route(int(a), int(b), route[:0])
			for _, l := range route {
				st.msgCong[l]++
				st.volCong[l] += w
			}
		}
	}
}

func (st *oracleState) finalize(topo torus.Topology) MapMetrics {
	m := MapMetrics{TH: st.th, WH: st.wh, ICV: st.icv, ICM: st.icm}
	var sumMsg int64
	var sumVC float64
	for l := range st.msgCong {
		if st.msgCong[l] == 0 {
			continue
		}
		m.UsedLinks++
		sumMsg += st.msgCong[l]
		if st.msgCong[l] > m.MMC {
			m.MMC = st.msgCong[l]
		}
		vc := float64(st.volCong[l]) / topo.LinkBW(l)
		sumVC += vc
		if vc > m.MC {
			m.MC = vc
		}
	}
	if m.UsedLinks > 0 {
		m.AMC = float64(sumMsg) / float64(m.UsedLinks)
		m.AC = sumVC / float64(m.UsedLinks)
	}
	for _, v := range st.recvVol {
		if v > m.MNRV {
			m.MNRV = v
		}
	}
	for _, c := range st.recvMsg {
		if c > m.MNRM {
			m.MNRM = c
		}
	}
	return m
}

// computeOracle evaluates a placement edge by edge.
func computeOracle(tg *graph.Graph, topo torus.Topology, pl *Placement) MapMetrics {
	st := oracleState{
		msgCong: make([]int64, topo.Links()),
		volCong: make([]int64, topo.Links()),
		recvVol: map[int32]int64{},
		recvMsg: map[int32]int64{},
	}
	st.accumulate(tg, topo, pl)
	m := st.finalize(topo)
	m.Makespan, m.LoadImbalance = loadSummary(tg, pl)
	return m
}

// randomDirected returns a directed graph on n vertices: m random
// edges one way only (parallel draws merge, self loops drop), random
// weights and loads.
func randomDirected(rng *rand.Rand, n, m int) *graph.Graph {
	us, vs, ws := make([]int32, m), make([]int32, m), make([]int64, m)
	for i := range us {
		us[i], vs[i], ws[i] = int32(rng.Intn(n)), int32(rng.Intn(n)), 1+rng.Int63n(100)
	}
	vw := make([]int64, n)
	for i := range vw {
		vw[i] = 1 + rng.Int63n(9)
	}
	return graph.FromEdges(n, us, vs, ws, vw)
}

// metricsCase is one placement the oracle test evaluates.
type metricsCase struct {
	name string
	tg   *graph.Graph
	pl   *Placement
}

// oracleCases draws task graphs of n tasks and placements on network
// nodes [0,nodes): random directed and symmetric graphs, nil EW/VW,
// groups of several tasks with empty groups and two groups sharing a
// node, and identity placements. n >= 512 with enough edges clears
// ComputePar's gate.
func oracleCases(rng *rand.Rand, nodes, n int) []metricsCase {
	directed := randomDirected(rng, n, 6*n)
	symmetric := graph.RandomConnected(n, 4*n, 50, rng.Int63())
	unit := &graph.Graph{Xadj: directed.Xadj, Adj: directed.Adj}
	// Duplicate stored edges, as a hand-built CSR may carry: each
	// counts as its own message.
	dup := &graph.Graph{Xadj: []int32{0, 2, 3, 3}, Adj: []int32{1, 1, 0}, EW: []int64{4, 6, 5}}

	grouped := func(ng, used int) *Placement {
		pl := &Placement{GroupOf: make([]int32, n), NodeOf: make([]int32, ng)}
		for t := range pl.GroupOf {
			pl.GroupOf[t] = int32(rng.Intn(used) * (ng / used))
		}
		for g := range pl.NodeOf {
			pl.NodeOf[g] = int32(rng.Intn(nodes))
		}
		return pl
	}
	identity := func(k int) *Placement {
		pl := &Placement{NodeOf: make([]int32, k)}
		for t := range pl.NodeOf {
			pl.NodeOf[t] = int32(rng.Intn(nodes))
		}
		return pl
	}
	shared := grouped(32, 32)
	shared.NodeOf[1] = shared.NodeOf[0] // two groups on one node
	shared.NodeOf[5] = shared.NodeOf[0]
	return []metricsCase{
		{"directed, grouped", directed, grouped(32, 32)},
		{"symmetric, grouped", symmetric, grouped(64, 64)},
		{"directed, empty groups", directed, grouped(40, 10)},
		{"directed, shared nodes", directed, shared},
		{"nil EW and VW, grouped", unit, grouped(16, 16)},
		{"directed, identity", directed, identity(n)},
		{"nil EW and VW, identity", unit, identity(n)},
		{"duplicate edges, identity", dup, identity(3)},
		{"duplicate edges, one group", dup, &Placement{GroupOf: []int32{0, 1, 1}, NodeOf: []int32{0, int32(nodes - 1)}}},
		{"all tasks on one node", directed, &Placement{GroupOf: make([]int32, n), NodeOf: []int32{3}}},
	}
}

// TestComputeMatchesOracle checks Compute and ComputePar at 1, 2 and 8
// workers against the per-edge evaluation, field for field, on a
// torus with uneven bandwidths, a fat tree and a route-cached torus.
func TestComputeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	ft, err := fattree.New(8, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	tor := torus.New([]int{4, 6, 4}, []float64{2, 1, 4})
	alloc := make([]int32, tor.Nodes())
	for i := range alloc {
		alloc[i] = int32(i)
	}
	cached, err := routecache.New(tor, alloc)
	if err != nil {
		t.Fatal(err)
	}
	// Fat-tree routes run between hosts, which take the low node ids.
	for _, topo := range []torus.Topology{tor, ft, cached} {
		nodes := topo.Nodes()
		if topo == ft {
			nodes = ft.Hosts()
		}
		for _, n := range []int{40, 700} {
			for _, c := range oracleCases(rng, nodes, n) {
				want := computeOracle(c.tg, topo, c.pl)
				name := fmt.Sprintf("%T n=%d %s", topo, n, c.name)
				if got := Compute(c.tg, topo, c.pl); got != want {
					t.Fatalf("%s: Compute diverged from the oracle\ngot  %+v\nwant %+v", name, got, want)
				}
				for _, workers := range []int{1, 2, 8} {
					grp := parallel.NewGroup(context.Background(), workers)
					if got := ComputePar(c.tg, topo, c.pl, grp); got != want {
						t.Fatalf("%s: ComputePar at %d workers diverged from the oracle\ngot  %+v\nwant %+v", name, workers, got, want)
					}
				}
			}
		}
	}
}
