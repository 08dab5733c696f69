// Package sfc implements space-filling curves over integer lattices.
// The allocation generator uses them to emulate the locality-biased
// linear node orderings Cray's ALPS scheduler uses when it hands out
// non-contiguous node sets on a torus (Albing et al., CUG 2011), and
// the DEF baseline mapping places consecutive ranks along the same
// order.
package sfc

import "math/bits"

// HilbertD2XYZ converts a Hilbert-curve index d (0 <= d < 2^(3b)) on a
// 2^b-sided cube into lattice coordinates, using Skilling's transpose
// algorithm ("Programming the Hilbert curve", AIP 2004).
func HilbertD2XYZ(bitsPerDim int, d uint64) (x, y, z uint32) {
	var X [3]uint32
	// De-interleave d into the transpose form: bit j of the index
	// chunk i goes to X[i] bit j, MSB first across dimensions.
	for j := bitsPerDim - 1; j >= 0; j-- {
		for i := 0; i < 3; i++ {
			shift := uint(j*3 + (2 - i))
			if d>>shift&1 == 1 {
				X[i] |= 1 << uint(j)
			}
		}
	}
	transposeToAxes(&X, bitsPerDim)
	return X[0], X[1], X[2]
}

// HilbertXYZ2D is the inverse of HilbertD2XYZ.
func HilbertXYZ2D(bitsPerDim int, x, y, z uint32) uint64 {
	X := [3]uint32{x, y, z}
	axesToTranspose(&X, bitsPerDim)
	var d uint64
	for j := bitsPerDim - 1; j >= 0; j-- {
		for i := 0; i < 3; i++ {
			d <<= 1
			d |= uint64(X[i] >> uint(j) & 1)
		}
	}
	return d
}

func transposeToAxes(x *[3]uint32, b int) {
	n := uint32(2) << uint(b-1)
	// Gray decode by H ^ (H/2).
	t := x[2] >> 1
	for i := 2; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != n; q <<= 1 {
		p := q - 1
		for i := 2; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}

func axesToTranspose(x *[3]uint32, b int) {
	m := uint32(1) << uint(b-1)
	// Inverse undo.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < 3; i++ {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < 3; i++ {
		x[i] ^= x[i-1]
	}
	t := uint32(0)
	for q := m; q > 1; q >>= 1 {
		if x[2]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < 3; i++ {
		x[i] ^= t
	}
}

// Order is a linear ordering of the points of an X×Y×Z box.
type Order int

// Supported orderings.
const (
	OrderHilbert  Order = iota // Hilbert curve over the bounding cube
	OrderMorton                // Z-order over the bounding cube
	OrderRowMajor              // plain x-fastest sweep
)

// BoxOrder returns the points of the X×Y×Z box as linear indices
// (x + X*(y + Y*z)) sorted along the requested curve. Every point
// appears exactly once.
func BoxOrder(order Order, dimX, dimY, dimZ int) []int32 {
	n := dimX * dimY * dimZ
	out := make([]int32, 0, n)
	switch order {
	case OrderRowMajor:
		for z := 0; z < dimZ; z++ {
			for y := 0; y < dimY; y++ {
				for x := 0; x < dimX; x++ {
					out = append(out, int32(x+dimX*(y+dimY*z)))
				}
			}
		}
		return out
	case OrderHilbert:
		b := ceilLog2(max3(dimX, dimY, dimZ))
		if b == 0 {
			b = 1
		}
		total := uint64(1) << uint(3*b)
		for d := uint64(0); d < total; d++ {
			x, y, z := HilbertD2XYZ(b, d)
			if int(x) < dimX && int(y) < dimY && int(z) < dimZ {
				out = append(out, int32(int(x)+dimX*(int(y)+dimY*int(z))))
			}
		}
		return out
	case OrderMorton:
		b := ceilLog2(max3(dimX, dimY, dimZ))
		if b == 0 {
			b = 1
		}
		total := uint64(1) << uint(3*b)
		for d := uint64(0); d < total; d++ {
			x, y, z := mortonDecode(d)
			if int(x) < dimX && int(y) < dimY && int(z) < dimZ {
				out = append(out, int32(int(x)+dimX*(int(y)+dimY*int(z))))
			}
		}
		return out
	}
	panic("sfc: unknown order")
}

func mortonDecode(d uint64) (x, y, z uint32) {
	return compact(d), compact(d >> 1), compact(d >> 2)
}

func compact(x uint64) uint32 {
	x &= 0x9249249249249249
	x = (x | x>>2) & 0x30c30c30c30c30c3
	x = (x | x>>4) & 0xf00f00f00f00f00f
	x = (x | x>>8) & 0x00ff0000ff0000ff
	x = (x | x>>16) & 0xffff00000000ffff
	x = (x | x>>32) & 0x00000000ffffffff
	return uint32(x)
}

func ceilLog2(v int) int {
	if v <= 1 {
		return 0
	}
	return bits.Len(uint(v - 1))
}

func max3(a, b, c int) int {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}
