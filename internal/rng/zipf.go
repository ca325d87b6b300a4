package rng

import (
	"fmt"
	"math"
	"sort"
)

// Zipf samples ranks from a Zipf(skew) distribution over [0, n):
// P(rank = k) ∝ 1/(k+1)^skew, so rank 0 is the most popular. It is the
// popularity model of frbench's serving workloads and of the serve
// package's load test: a handful of hot specs dominate a long tail,
// which is the regime where duplicate coalescing and the
// content-addressed cache must absorb the traffic.
//
// Sampling is deterministic: the distribution is materialized as an
// exact cumulative table at construction and draws consume exactly one
// value from the supplied Stream, so a harness run is reproducible from
// its seed alone. skew 0 degenerates to the uniform distribution.
//
// Zipf is not safe for concurrent use (it advances its Stream); derive
// one per goroutine with Stream.Split.
type Zipf struct {
	s   *Stream
	cdf []float64 // cdf[k] = P(rank <= k), cdf[n-1] == 1
}

// NewZipf returns a sampler over ranks [0, n) with the given skew.
// n must be positive and skew non-negative and finite.
func NewZipf(s *Stream, skew float64, n int) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("rng: Zipf needs a positive rank count, got %d", n)
	}
	if skew < 0 || math.IsInf(skew, 0) || math.IsNaN(skew) {
		return nil, fmt.Errorf("rng: Zipf skew must be finite and non-negative, got %v", skew)
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(k+1), -skew)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	cdf[n-1] = 1 // exact, regardless of rounding
	return &Zipf{s: s, cdf: cdf}, nil
}

// Next draws the next rank in [0, n).
func (z *Zipf) Next() int {
	u := z.s.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// Prob returns the exact probability of rank k, for harness reporting
// and tests. It panics if k is out of range.
func (z *Zipf) Prob(k int) float64 {
	if k == 0 {
		return z.cdf[0]
	}
	return z.cdf[k] - z.cdf[k-1]
}
