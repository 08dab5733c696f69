package fattree

import (
	"fmt"

	"repro/internal/alloc"
)

// Host allocation mirrors internal/alloc's Cray-style modes: a fat
// tree's scheduler linear order is simply host-id order, which walks
// ports, then edge switches, then pods — the locality order of the
// physical racks.

// SparseHosts reserves want hosts on a busy machine: a seeded random
// half of the hosts is occupied and the first want free hosts after a
// random offset (in id order) are taken — non-contiguous but
// locality-biased, like the paper's Hopper allocations. Each host gets
// procsPerHost processors.
func SparseHosts(ft *FatTree, want, procsPerHost int, seed int64) (*alloc.Allocation, error) {
	if procsPerHost <= 0 {
		procsPerHost = alloc.DefaultProcsPerNode
	}
	nodes, err := alloc.SparseIDs(ft.Hosts(), want, seed, 0.5)
	if err != nil {
		return nil, fmt.Errorf("fattree: %w", err)
	}
	procs := make([]int, want)
	for i := range procs {
		procs[i] = procsPerHost
	}
	return &alloc.Allocation{Nodes: nodes, ProcsPerNode: procs}, nil
}
