// Package rankfile reads and writes the artifacts a task mapping
// exchanges with a real MPI launch. A mapping library is only useful
// downstream if its result can reach the runtime: on Cray systems the
// accepted channel is a rank-order file (MPICH_RANK_REORDER_METHOD=3
// reads MPICH_RANK_ORDER: a comma-separated permutation of ranks,
// filled onto the allocated nodes block by block in SMP style), and
// the allocation itself arrives as a list of node ids captured from
// the scheduler (§II-B: "the topology information ... can be captured
// using system calls"). LibTopoMap emits the same artifacts.
package rankfile

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/alloc"
	"repro/internal/metrics"
)

// ranksPerLine keeps the emitted MPICH_RANK_ORDER lines readable.
const ranksPerLine = 16

// WriteRankOrder emits the rank permutation that realizes the
// placement under SMP-style (block) filling: the first
// a.ProcsPerNode[0] ranks of the file land on a.Nodes[0], the next
// block on a.Nodes[1], and so on — so the file lists, node by node in
// allocation order, the ranks the placement assigns there. Ranks
// assigned to the same node are listed in increasing order.
func WriteRankOrder(w io.Writer, pl *metrics.Placement, a *alloc.Allocation) error {
	nRanks := len(pl.NodeOf)
	if pl.GroupOf != nil {
		nRanks = len(pl.GroupOf)
	}
	// node id -> allocation position.
	pos := map[int32]int{}
	for i, m := range a.Nodes {
		pos[m] = i
	}
	byNode := make([][]int32, len(a.Nodes))
	for r := 0; r < nRanks; r++ {
		m := pl.Node(int32(r))
		i, ok := pos[m]
		if !ok {
			return fmt.Errorf("rankfile: rank %d mapped to node %d outside the allocation", r, m)
		}
		byNode[i] = append(byNode[i], int32(r))
	}
	// A rank-order file cannot realize every placement: the runtime
	// fills the nodes block by block, ProcsPerNode[i] ranks at a time,
	// so each node must be filled exactly to capacity — except for one
	// final partial node followed only by empty nodes.
	partialSeen := false
	for i, ranks := range byNode {
		switch {
		case len(ranks) > a.ProcsPerNode[i]:
			return fmt.Errorf("rankfile: node %d hosts %d ranks, capacity %d",
				a.Nodes[i], len(ranks), a.ProcsPerNode[i])
		case partialSeen && len(ranks) > 0:
			return fmt.Errorf("rankfile: node %d is non-empty after a partially filled node; "+
				"SMP block filling cannot realize this placement", a.Nodes[i])
		case len(ranks) < a.ProcsPerNode[i]:
			partialSeen = true
		}
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# MPICH_RANK_ORDER: %d ranks on %d nodes (SMP filling)\n", nRanks, len(a.Nodes))
	n := 0
	for _, ranks := range byNode {
		for _, r := range ranks {
			if n > 0 {
				if n%ranksPerLine == 0 {
					bw.WriteString(",\n")
				} else {
					bw.WriteString(",")
				}
			}
			fmt.Fprintf(bw, "%d", r)
			n++
		}
	}
	bw.WriteString("\n")
	return bw.Flush()
}

// ReadRankOrder parses a rank-order file (comma- and/or newline-
// separated rank ids, '#' comments) and verifies it is a permutation
// of 0..n-1.
func ReadRankOrder(r io.Reader) ([]int32, error) {
	var order []int32
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		for _, f := range strings.FieldsFunc(line, func(c rune) bool { return c == ',' || c == ' ' || c == '\t' }) {
			v, err := strconv.ParseInt(f, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("rankfile: bad rank %q", f)
			}
			order = append(order, int32(v))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("rankfile: empty rank order")
	}
	seen := make([]bool, len(order))
	for _, v := range order {
		if v < 0 || int(v) >= len(order) || seen[v] {
			return nil, fmt.Errorf("rankfile: rank order is not a permutation (rank %d)", v)
		}
		seen[v] = true
	}
	return order, nil
}

// PlacementFromRankOrder reconstructs the rank→node placement an MPI
// runtime would realize from the rank-order file on the given
// allocation: the file's ranks fill a.Nodes in order, a.ProcsPerNode
// capacities at a time. The result has one group per allocated node.
func PlacementFromRankOrder(order []int32, a *alloc.Allocation) (*metrics.Placement, error) {
	groupOf := make([]int32, len(order))
	idx := 0
	for i := range a.Nodes {
		take := a.ProcsPerNode[i]
		for j := 0; j < take && idx < len(order); j++ {
			groupOf[order[idx]] = int32(i)
			idx++
		}
	}
	if idx != len(order) {
		return nil, fmt.Errorf("rankfile: %d ranks exceed allocation capacity %d", len(order), a.TotalProcs())
	}
	return &metrics.Placement{GroupOf: groupOf, NodeOf: append([]int32(nil), a.Nodes...)}, nil
}

// ReadNodeList parses an allocation file: one node per line, either
// "node" (capacity defaults to 16 processors, the paper's setting) or
// "node procs". '#' starts a comment. Node order is preserved — it is
// the scheduler's allocation order the DEF mapping follows.
func ReadNodeList(r io.Reader) (*alloc.Allocation, error) {
	a := &alloc.Allocation{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) > 2 {
			return nil, fmt.Errorf("rankfile: bad node line %q", line)
		}
		node, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil || node < 0 {
			return nil, fmt.Errorf("rankfile: bad node id %q", fields[0])
		}
		procs := alloc.DefaultProcsPerNode
		if len(fields) == 2 {
			procs, err = strconv.Atoi(fields[1])
			if err != nil || procs < 1 {
				return nil, fmt.Errorf("rankfile: bad processor count %q", fields[1])
			}
		}
		a.Nodes = append(a.Nodes, int32(node))
		a.ProcsPerNode = append(a.ProcsPerNode, procs)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(a.Nodes) == 0 {
		return nil, fmt.Errorf("rankfile: empty node list")
	}
	seen := map[int32]bool{}
	for _, m := range a.Nodes {
		if seen[m] {
			return nil, fmt.Errorf("rankfile: node %d listed twice", m)
		}
		seen[m] = true
	}
	return a, nil
}
