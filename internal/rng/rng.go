package rng

import "math"

// Mix64 applies the SplitMix64 finalizer to x, producing a well-distributed
// 64-bit value. It is a bijection on uint64.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Combine mixes two 64-bit values into one, suitable for deriving a child
// seed from a parent seed and a stream identifier. Combine(a, b) and
// Combine(b, a) are distinct in general.
func Combine(a, b uint64) uint64 {
	return Mix64(a ^ Mix64(b+0x632be59bd9b4e019))
}

// Float64 maps a 64-bit hash to the unit interval [0, 1) using the top 53
// bits, the same construction as math/rand.Float64.
func Float64(x uint64) float64 {
	return float64(x>>11) / (1 << 53)
}

// Coin reports whether the Bernoulli(p) coin identified by (seed, id) comes
// up true. It is deterministic: the same (seed, id, p) always yields the
// same answer, and for fixed seed the coins for distinct ids are
// (empirically) independent.
//
// Coin needs no guard for p outside (0, 1): Float64 lies in
// [0, 1-2^-53], so p >= 1 (and +Inf) always gives true, p <= 0 (-0
// and -Inf too) always gives false, and NaN gives false. Without a
// guard Coin sits exactly at the inliner's budget, so every edge probe
// hashes in place; CI fails if Coin stops inlining.
func Coin(seed, id uint64, p float64) bool {
	return Float64(Combine(seed, id)) < p
}

// Stream is a small, fast sequential PRNG (SplitMix64). The zero value is a
// valid stream seeded with 0; prefer NewStream to make seeding explicit.
// Stream is not safe for concurrent use; derive one per goroutine with
// Split.
type Stream struct {
	state uint64
}

// NewStream returns a sequential generator seeded with seed.
func NewStream(seed uint64) *Stream {
	return &Stream{state: seed}
}

// Split derives an independent child stream identified by id. Distinct ids
// give streams that do not overlap the parent's future output.
func (s *Stream) Split(id uint64) *Stream {
	return &Stream{state: Combine(s.state, Mix64(id))}
}

// Uint64 returns the next value in the stream.
func (s *Stream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return Mix64(s.state)
}

// Float64 returns the next value in [0, 1).
func (s *Stream) Float64() float64 {
	return Float64(s.Uint64())
}

// Intn returns a uniform value in [0, n). It panics if n <= 0, mirroring
// math/rand.Intn.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// It uses rejection sampling to avoid modulo bias.
func (s *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with zero n")
	}
	if n&(n-1) == 0 { // power of two
		return s.Uint64() & (n - 1)
	}
	// Rejection sampling: discard values in the biased tail.
	limit := math.MaxUint64 - math.MaxUint64%n
	for {
		v := s.Uint64()
		if v < limit {
			return v % n
		}
	}
}

// Bernoulli returns true with probability p.
func (s *Stream) Bernoulli(p float64) bool {
	if p >= 1 {
		return true
	}
	if p <= 0 {
		return false
	}
	return s.Float64() < p
}

// Perm returns a uniform random permutation of [0, n) as a slice,
// using the Fisher-Yates shuffle.
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n elements using swap, as math/rand.Shuffle.
func (s *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}
