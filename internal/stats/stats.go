package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoData is returned by estimators invoked on empty inputs.
var ErrNoData = errors.New("stats: no data")

// Summary holds order statistics and moments of a sample.
type Summary struct {
	N        int
	Mean     float64
	Std      float64 // sample standard deviation (n-1 denominator)
	Min      float64
	Max      float64
	Median   float64
	Q25, Q75 float64
	P90      float64
	// Censored counts observations that were cut off at a budget and
	// excluded from the moments; the true values are at least as large
	// as the budget.
	Censored int
}

// Summarize computes a Summary of xs. Censored is the number of
// additional budget-censored observations to record (they do not enter
// the moments).
func Summarize(xs []float64, censored int) (Summary, error) {
	if len(xs) == 0 {
		if censored > 0 {
			return Summary{Censored: censored}, nil
		}
		return Summary{}, ErrNoData
	}
	s := Summary{N: len(xs), Censored: censored}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	s.Median = Quantile(sorted, 0.5)
	s.Q25 = Quantile(sorted, 0.25)
	s.Q75 = Quantile(sorted, 0.75)
	s.P90 = Quantile(sorted, 0.9)
	var sum float64
	for _, x := range sorted {
		sum += x
	}
	s.Mean = sum / float64(len(sorted))
	if len(sorted) > 1 {
		var ss float64
		for _, x := range sorted {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(sorted)-1))
	}
	return s, nil
}

// Quantile returns the q-th quantile (0 <= q <= 1) of an ascending-sorted
// slice, with linear interpolation between order statistics.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Wilson returns the Wilson score interval for a binomial proportion:
// successes k out of n at z standard errors. It behaves sensibly at the
// extremes k=0 and k=n, unlike the Wald interval.
func Wilson(k, n int, z float64) (center, lo, hi float64, err error) {
	if n <= 0 {
		return 0, 0, 0, fmt.Errorf("%w: n = %d", ErrNoData, n)
	}
	p := float64(k) / float64(n)
	z2 := z * z
	nf := float64(n)
	denom := 1 + z2/nf
	center = (p + z2/(2*nf)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf))
	return center, center - half, center + half, nil
}

// Fit is a least-squares line fit y = Slope*x + Intercept with its
// coefficient of determination.
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64
	N         int
}

// LinearFit fits a least-squares line through (x, y) pairs.
func LinearFit(xs, ys []float64) (Fit, error) {
	if len(xs) != len(ys) {
		return Fit{}, fmt.Errorf("stats: mismatched lengths %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return Fit{}, fmt.Errorf("%w: need at least 2 points", ErrNoData)
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{}, errors.New("stats: degenerate fit (constant x)")
	}
	slope := sxy / sxx
	f := Fit{
		Slope:     slope,
		Intercept: my - slope*mx,
		N:         len(xs),
	}
	if syy == 0 {
		f.R2 = 1 // constant y fitted exactly by slope 0
	} else {
		f.R2 = (sxy * sxy) / (sxx * syy)
	}
	return f, nil
}

// PowerLawFit fits y = C * x^Exponent by least squares in log-log space.
// All inputs must be positive.
type PowerLawFit struct {
	Exponent float64
	Constant float64
	R2       float64
	N        int
}

// FitPowerLaw estimates the exponent of a power-law relationship. The
// experiments compare this against the theorem exponents (e.g. ≈1 for
// mesh routing, ≈2 for local G(n,p), ≈1.5 for oracle G(n,p)).
func FitPowerLaw(xs, ys []float64) (PowerLawFit, error) {
	lx := make([]float64, 0, len(xs))
	ly := make([]float64, 0, len(ys))
	if len(xs) != len(ys) {
		return PowerLawFit{}, fmt.Errorf("stats: mismatched lengths %d vs %d", len(xs), len(ys))
	}
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return PowerLawFit{}, fmt.Errorf("stats: power-law fit needs positive data, got (%v, %v)", xs[i], ys[i])
		}
		lx = append(lx, math.Log(xs[i]))
		ly = append(ly, math.Log(ys[i]))
	}
	f, err := LinearFit(lx, ly)
	if err != nil {
		return PowerLawFit{}, err
	}
	return PowerLawFit{
		Exponent: f.Slope,
		Constant: math.Exp(f.Intercept),
		R2:       f.R2,
		N:        f.N,
	}, nil
}

// ExpFit fits y = C * Base^x (equivalently log y linear in x); Rate is
// log(Base). Theorem 7's p^{-n} growth appears as Base ≈ 1/p (for the
// proven floor) or 2p (for the BFS cost) on the double tree.
type ExpFit struct {
	Rate     float64 // per-unit-x growth rate in log space
	Base     float64 // e^Rate
	Constant float64
	R2       float64
	N        int
}

// FitExponential estimates the growth rate of an exponential
// relationship. ys must be positive.
func FitExponential(xs, ys []float64) (ExpFit, error) {
	if len(xs) != len(ys) {
		return ExpFit{}, fmt.Errorf("stats: mismatched lengths %d vs %d", len(xs), len(ys))
	}
	ly := make([]float64, 0, len(ys))
	for _, y := range ys {
		if y <= 0 {
			return ExpFit{}, fmt.Errorf("stats: exponential fit needs positive y, got %v", y)
		}
		ly = append(ly, math.Log(y))
	}
	f, err := LinearFit(xs, ly)
	if err != nil {
		return ExpFit{}, err
	}
	return ExpFit{
		Rate:     f.Slope,
		Base:     math.Exp(f.Slope),
		Constant: math.Exp(f.Intercept),
		R2:       f.R2,
		N:        f.N,
	}, nil
}
