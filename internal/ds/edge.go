package ds

// EdgeTriple is one directed weighted edge in the staging form the
// CSR builders bucket by U and merge in place before laying out a
// graph. It lives in ds (not graph) so the arena can pool triple
// scratch without importing the graph package.
type EdgeTriple struct {
	U, V int32
	W    int64
}
