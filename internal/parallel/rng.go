package parallel

import "math/rand"

// SubtreeRNG returns the seeded random source of one recursive-split
// subtree: the caller seed and the subtree's position in the split
// tree (root 1, children 2p and 2p+1) are mixed splitmix64-style into
// the stream's start. Each subtree owns an independent deterministic
// stream, so a split tree does not depend on the order — or the
// goroutine — its siblings run on. These are the pre-split seeded
// sources of Group's determinism contract; the graph partitioner's
// recursive bisection and the multi-jagged coordinate bisection both
// draw from them.
func SubtreeRNG(seed int64, path uint64) *rand.Rand {
	return rand.New(&splitmix{state: mix64(uint64(seed)*0x9E3779B97F4A7C15 + path)})
}

// mix64 is the splitmix64 finalizer shared by the subtree seed and the
// splitmix source — one copy, so the two can never drift apart and
// silently change a split tree.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// splitmix is a tiny rand.Source64. The stock math/rand source carries
// a 607-word feedback array — ~5 KB seeded per subtree — while the
// splits only need cheap, well-mixed draws for seed picks, matching
// orders and cut-dimension tie-breaks.
type splitmix struct{ state uint64 }

func (s *splitmix) Seed(seed int64) { s.state = uint64(seed) }

func (s *splitmix) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	return mix64(s.state)
}

func (s *splitmix) Int63() int64 { return int64(s.Uint64() >> 1) }
