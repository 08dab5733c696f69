package routecache

// PatchStats reports how much of a previous table's tabulated state a
// Patch call salvaged: Reused counts the ordered off-diagonal node
// pairs copied verbatim from the previous tables, Total the pairs the
// new table tabulates. On a pure node-removal or capacity-only delta
// every surviving pair is reused; only pairs touching an added node
// pay a route recomputation.
type PatchStats struct {
	Reused, Total int
}

// Patch builds the table for allocNodes by patching a previous table
// in place of a cold build: every (a,b) pair whose two endpoints were
// both allocated in prev keeps its tabulated hop distance and route
// verbatim — only pairs touching a node prev did not cover are
// recomputed from the base topology. The result is observationally
// identical to New(base, allocNodes) (both tables are derived from
// the same base Route/HopDist answers), so a patched engine and a cold
// engine produce byte-identical mappings; Patch only changes how much
// construction work the delta costs.
func Patch(prev *Table, allocNodes []int32) (*Table, PatchStats, error) {
	return build(prev.base, prev, allocNodes)
}
