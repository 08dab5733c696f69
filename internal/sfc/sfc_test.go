package sfc

import (
	"testing"
	"testing/quick"
)

func TestHilbertRoundTrip(t *testing.T) {
	for _, b := range []int{1, 2, 3, 4} {
		total := uint64(1) << uint(3*b)
		for d := uint64(0); d < total; d++ {
			x, y, z := HilbertD2XYZ(b, d)
			if got := HilbertXYZ2D(b, x, y, z); got != d {
				t.Fatalf("b=%d d=%d -> (%d,%d,%d) -> %d", b, d, x, y, z, got)
			}
		}
	}
}

func TestHilbertIsBijection(t *testing.T) {
	const b = 3
	side := uint32(1) << b
	seen := map[[3]uint32]bool{}
	for d := uint64(0); d < uint64(side)*uint64(side)*uint64(side); d++ {
		x, y, z := HilbertD2XYZ(b, d)
		if x >= side || y >= side || z >= side {
			t.Fatalf("d=%d out of cube: (%d,%d,%d)", d, x, y, z)
		}
		key := [3]uint32{x, y, z}
		if seen[key] {
			t.Fatalf("duplicate point (%d,%d,%d)", x, y, z)
		}
		seen[key] = true
	}
}

// The defining property of the Hilbert curve: consecutive indices map
// to lattice points at L1 distance exactly 1.
func TestHilbertAdjacency(t *testing.T) {
	const b = 4
	total := uint64(1) << (3 * b)
	px, py, pz := HilbertD2XYZ(b, 0)
	for d := uint64(1); d < total; d++ {
		x, y, z := HilbertD2XYZ(b, d)
		dist := absDiff(x, px) + absDiff(y, py) + absDiff(z, pz)
		if dist != 1 {
			t.Fatalf("d=%d: L1 step = %d, want 1 ((%d,%d,%d)->(%d,%d,%d))",
				d, dist, px, py, pz, x, y, z)
		}
		px, py, pz = x, y, z
	}
}

func absDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

// TestHilbertRoundTripProperty extends the exhaustive small-cube
// sweep to random points at the 10-bit resolution the geometric
// mappers quantize to: XYZ2D followed by D2XYZ must reproduce the
// point exactly.
func TestHilbertRoundTripProperty(t *testing.T) {
	const b = 10
	prop := func(x, y, z uint16) bool {
		mask := uint32(1)<<b - 1
		xx, yy, zz := uint32(x)&mask, uint32(y)&mask, uint32(z)&mask
		d := HilbertXYZ2D(b, xx, yy, zz)
		gx, gy, gz := HilbertD2XYZ(b, d)
		return gx == xx && gy == yy && gz == zz
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// mortonEncode interleaves bit i of x, y and z into bits 3i, 3i+1
// and 3i+2 of a Morton (Z-order) code, one bit at a time.
func mortonEncode(x, y, z uint32) uint64 {
	var d uint64
	for i := 0; i < 10; i++ {
		d |= uint64(x>>i&1)<<(3*i) | uint64(y>>i&1)<<(3*i+1) | uint64(z>>i&1)<<(3*i+2)
	}
	return d
}

func TestMortonRoundTripProperty(t *testing.T) {
	prop := func(x, y, z uint16) bool {
		xx, yy, zz := uint32(x)&0x3ff, uint32(y)&0x3ff, uint32(z)&0x3ff
		d := mortonEncode(xx, yy, zz)
		gx, gy, gz := mortonDecode(d)
		return gx == xx && gy == yy && gz == zz
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBoxOrderCoversEveryPointOnce(t *testing.T) {
	for _, order := range []Order{OrderHilbert, OrderMorton, OrderRowMajor} {
		for _, dims := range [][3]int{
			{4, 4, 4}, {5, 3, 7}, {1, 1, 1}, {16, 12, 16},
			// Adversarial shapes: degenerate lines and planes, prime
			// extents, and heavy aspect ratios — the curve is generated
			// over the enclosing power-of-two cube and filtered, so these
			// stress the filter, not just the curve.
			{1, 1, 13}, {1, 17, 1}, {31, 1, 1}, {1, 5, 9}, {2, 1, 64}, {3, 3, 1}, {7, 11, 13},
		} {
			pts := BoxOrder(order, dims[0], dims[1], dims[2])
			n := dims[0] * dims[1] * dims[2]
			if len(pts) != n {
				t.Fatalf("order %d dims %v: len = %d, want %d", order, dims, len(pts), n)
			}
			seen := make([]bool, n)
			for _, p := range pts {
				if p < 0 || int(p) >= n {
					t.Fatalf("order %d dims %v: point %d out of range", order, dims, p)
				}
				if seen[p] {
					t.Fatalf("order %d dims %v: duplicate point %d", order, dims, p)
				}
				seen[p] = true
			}
		}
	}
}

// A space-filling ordering should be far more local than a row-major
// sweep on a cube: measure the mean L1 jump between consecutive
// points and require Hilbert to beat row-major.
func TestHilbertLocalityBeatsRowMajor(t *testing.T) {
	dims := [3]int{8, 8, 8}
	jump := func(pts []int32) float64 {
		var total float64
		for i := 1; i < len(pts); i++ {
			a, b := int(pts[i-1]), int(pts[i])
			ax, ay, az := a%dims[0], a/dims[0]%dims[1], a/(dims[0]*dims[1])
			bx, by, bz := b%dims[0], b/dims[0]%dims[1], b/(dims[0]*dims[1])
			total += float64(abs(ax-bx) + abs(ay-by) + abs(az-bz))
		}
		return total / float64(len(pts)-1)
	}
	h := jump(BoxOrder(OrderHilbert, dims[0], dims[1], dims[2]))
	r := jump(BoxOrder(OrderRowMajor, dims[0], dims[1], dims[2]))
	if h != 1.0 {
		t.Fatalf("hilbert mean jump = %f, want exactly 1 on a cube", h)
	}
	if h >= r {
		t.Fatalf("hilbert (%f) not more local than row-major (%f)", h, r)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4, 17: 5}
	for in, want := range cases {
		if got := ceilLog2(in); got != want {
			t.Fatalf("ceilLog2(%d) = %d, want %d", in, got, want)
		}
	}
}
