package torus

import "strconv"

// Fingerprinter is implemented by topologies that can describe their
// construction parameters as a short canonical string. Two topologies
// with the same fingerprint are structurally identical — same nodes,
// links, routes and bandwidths — so routing state computed against one
// is valid for the other. The engine cache keys on it; topologies that
// do not implement it fall back to a structural hash.
type Fingerprinter interface {
	// TopologyFingerprint returns the canonical construction string,
	// e.g. "torus:8x8x8;wrap;bw=9.38e+09,4.68e+09,9.38e+09".
	TopologyFingerprint() string
}

// TopologyFingerprint canonically describes the torus or mesh:
// dimension sizes, wraparound, and per-dimension bandwidths.
func (t *Torus) TopologyFingerprint() string {
	buf := make([]byte, 0, 64)
	if t.wrap {
		buf = append(buf, "torus:"...)
	} else {
		buf = append(buf, "mesh:"...)
	}
	for d, sz := range t.dims {
		if d > 0 {
			buf = append(buf, 'x')
		}
		buf = strconv.AppendInt(buf, int64(sz), 10)
	}
	buf = append(buf, ";bw="...)
	for d, b := range t.bw {
		if d > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendFloat(buf, b, 'g', -1, 64)
	}
	return string(buf)
}
