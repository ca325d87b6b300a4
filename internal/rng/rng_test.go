package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMix64Deterministic(t *testing.T) {
	for _, x := range []uint64{0, 1, 42, math.MaxUint64} {
		if Mix64(x) != Mix64(x) {
			t.Fatalf("Mix64(%d) not deterministic", x)
		}
	}
}

func TestMix64Injective(t *testing.T) {
	// SplitMix64's finalizer is a bijection; check no collisions on a
	// dense small range plus a sparse large range.
	seen := make(map[uint64]uint64, 1<<16)
	for x := uint64(0); x < 1<<16; x++ {
		h := Mix64(x)
		if prev, ok := seen[h]; ok {
			t.Fatalf("collision: Mix64(%d) == Mix64(%d)", x, prev)
		}
		seen[h] = x
	}
}

func TestMix64AvalancheRough(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	const trials = 1000
	total := 0
	s := NewStream(7)
	for i := 0; i < trials; i++ {
		x := s.Uint64()
		bit := uint(s.Intn(64))
		d := Mix64(x) ^ Mix64(x^(1<<bit))
		total += popcount(d)
	}
	mean := float64(total) / trials
	if mean < 28 || mean > 36 {
		t.Fatalf("avalanche mean bits flipped = %.2f, want ~32", mean)
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestCombineOrderSensitive(t *testing.T) {
	if Combine(1, 2) == Combine(2, 1) {
		t.Fatal("Combine should not be symmetric")
	}
}

func TestFloat64Range(t *testing.T) {
	if err := quick.Check(func(x uint64) bool {
		f := Float64(x)
		return f >= 0 && f < 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoinEdgeCases(t *testing.T) {
	for id := uint64(0); id < 100; id++ {
		if !Coin(1, id, 1.0) {
			t.Fatal("Coin with p=1 must be true")
		}
		if Coin(1, id, 0.0) {
			t.Fatal("Coin with p=0 must be false")
		}
		if !Coin(1, id, 1.5) {
			t.Fatal("Coin with p>1 must be true")
		}
		if Coin(1, id, -0.5) {
			t.Fatal("Coin with p<0 must be false")
		}
		if !Coin(1, id, math.Inf(1)) {
			t.Fatal("Coin with p=+Inf must be true")
		}
		if Coin(1, id, math.Inf(-1)) {
			t.Fatal("Coin with p=-Inf must be false")
		}
		if Coin(1, id, math.Copysign(0, -1)) {
			t.Fatal("Coin with p=-0 must be false")
		}
		if Coin(1, id, math.NaN()) {
			t.Fatal("Coin with p=NaN must be false")
		}
	}
	// The extreme uniforms, reached by inverting Combine: 0 is below
	// every positive p, and the largest value, 1-2^-53, is below 1 and
	// nothing less.
	lo, hi := seedFor(0, 5), seedFor(math.MaxUint64, 5)
	if Float64(Combine(lo, 5)) != 0 || Float64(Combine(hi, 5)) != math.Nextafter(1, 0) {
		t.Fatal("seedFor does not reach the extreme uniforms")
	}
	for _, c := range []struct {
		seed uint64
		p    float64
		want bool
	}{
		{lo, math.SmallestNonzeroFloat64, true},
		{lo, 0, false},
		{lo, math.Copysign(0, -1), false},
		{lo, math.NaN(), false},
		{hi, math.Nextafter(1, 0), false},
		{hi, 1, true},
		{hi, math.Inf(1), true},
		{hi, math.NaN(), false},
	} {
		if got := Coin(c.seed, 5, c.p); got != c.want {
			t.Errorf("Coin(u=%v, p=%v) = %v, want %v", Float64(Combine(c.seed, 5)), c.p, got, c.want)
		}
	}
}

// coinPs are the p values whose coins must match the guarded definition:
// both guards' edges, the special floats, and interior values.
var coinPs = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1,
	math.Nextafter(1, 0), math.Nextafter(1, 2), math.SmallestNonzeroFloat64,
	-math.SmallestNonzeroFloat64, 1e-300, 0.25, 0.5, 0.9, 1.5, -0.5,
}

// guardedCoin is Coin as first written, with explicit guards for p
// outside (0, 1). It is the reference the unguarded Coin must equal.
func guardedCoin(seed, id uint64, p float64) bool {
	if p >= 1 {
		return true
	}
	if p <= 0 {
		return false
	}
	return Float64(Combine(seed, id)) < p
}

func TestCoinMatchesGuardedDefinition(t *testing.T) {
	if err := quick.Check(func(seed, id uint64) bool {
		for _, p := range coinPs {
			if Coin(seed, id, p) != guardedCoin(seed, id, p) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	for _, x := range []uint64{0, 1 << 11, math.MaxUint64, math.MaxUint64 - 1<<11} {
		for _, p := range coinPs {
			if seed := seedFor(x, 9); Coin(seed, 9, p) != guardedCoin(seed, 9, p) {
				t.Fatalf("Coin and the guarded definition differ at u=%v, p=%v", Float64(x), p)
			}
		}
	}
}

// seedFor returns the seed with Combine(seed, id) == x, by inverting
// Mix64 step by step.
func seedFor(x, id uint64) uint64 {
	x ^= x>>31 ^ x>>62
	x *= mulInverse(0x94d049bb133111eb)
	x ^= x>>27 ^ x>>54
	x *= mulInverse(0xbf58476d1ce4e5b9)
	x ^= x>>30 ^ x>>60
	x -= 0x9e3779b97f4a7c15
	return x ^ Mix64(id+0x632be59bd9b4e019)
}

// mulInverse returns the inverse of an odd a modulo 2^64 (Newton's
// iteration; each step doubles the correct low bits).
func mulInverse(a uint64) uint64 {
	inv := a
	for i := 0; i < 5; i++ {
		inv *= 2 - a*inv
	}
	return inv
}

func TestSeedForInvertsCombine(t *testing.T) {
	if err := quick.Check(func(x, id uint64) bool {
		return Combine(seedFor(x, id), id) == x
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoinDeterministic(t *testing.T) {
	if err := quick.Check(func(seed, id uint64) bool {
		return Coin(seed, id, 0.5) == Coin(seed, id, 0.5)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoinMonotoneInP(t *testing.T) {
	// If a coin is open at probability p it must be open at any p' > p:
	// the underlying uniform is fixed per (seed, id).
	if err := quick.Check(func(seed, id uint64) bool {
		u := Float64(Combine(seed, id))
		for _, p := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
			if Coin(seed, id, p) != (u < p) {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoinFrequency(t *testing.T) {
	for _, p := range []float64{0.1, 0.5, 0.9} {
		const n = 200000
		open := 0
		for id := uint64(0); id < n; id++ {
			if Coin(12345, id, p) {
				open++
			}
		}
		got := float64(open) / n
		// 5 sigma tolerance for Binomial(n, p).
		tol := 5 * math.Sqrt(p*(1-p)/n)
		if math.Abs(got-p) > tol {
			t.Errorf("Coin frequency at p=%.1f: got %.4f, want within %.4f", p, got, tol)
		}
	}
}

func TestStreamDeterministic(t *testing.T) {
	a, b := NewStream(99), NewStream(99)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed streams diverged")
		}
	}
}

func TestStreamSplitIndependent(t *testing.T) {
	parent := NewStream(5)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams collided %d times in 1000 draws", same)
	}
}

func TestIntnRange(t *testing.T) {
	s := NewStream(3)
	for i := 0; i < 10000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewStream(1).Intn(0)
}

func TestUint64nPowerOfTwo(t *testing.T) {
	s := NewStream(11)
	for i := 0; i < 10000; i++ {
		if v := s.Uint64n(16); v >= 16 {
			t.Fatalf("Uint64n(16) = %d", v)
		}
	}
}

func TestUint64nUniformRough(t *testing.T) {
	s := NewStream(13)
	const buckets, n = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[s.Uint64n(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: %d draws, want ~%.0f", b, c, want)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := NewStream(17)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	s := NewStream(19)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.25) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.25) > 0.01 {
		t.Fatalf("Bernoulli(0.25) frequency = %.4f", got)
	}
}

func TestShuffleMatchesPermSemantics(t *testing.T) {
	s := NewStream(23)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, len(xs))
	for _, v := range xs {
		if seen[v] {
			t.Fatalf("Shuffle produced duplicate: %v", xs)
		}
		seen[v] = true
	}
}
