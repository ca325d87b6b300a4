package stats

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeBasics(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("summary = %+v", s)
	}
	if !almost(s.Std, math.Sqrt(2.5), 1e-12) {
		t.Fatalf("std = %v", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil, 0); !errors.Is(err, ErrNoData) {
		t.Fatalf("err = %v", err)
	}
	s, err := Summarize(nil, 7)
	if err != nil || s.Censored != 7 || s.N != 0 {
		t.Fatalf("all-censored summary = %+v, %v", s, err)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Summarize(xs, 0); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestSummarizeSingleValue(t *testing.T) {
	s, err := Summarize([]float64{42}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Std != 0 || s.Mean != 42 || s.Median != 42 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	if q := Quantile(sorted, 0.5); !almost(q, 5, 1e-12) {
		t.Fatalf("median = %v", q)
	}
	if q := Quantile(sorted, 0); q != 0 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(sorted, 1); q != 10 {
		t.Fatalf("q1 = %v", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	if err := quick.Check(func(raw []float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWilsonBounds(t *testing.T) {
	for _, c := range []struct{ k, n int }{{0, 10}, {10, 10}, {5, 10}, {1, 1000}} {
		center, lo, hi, err := Wilson(c.k, c.n, 1.96)
		if err != nil {
			t.Fatal(err)
		}
		if lo < -1e-12 || hi > 1+1e-12 || lo > center || hi < center {
			t.Fatalf("Wilson(%d,%d) = (%v, %v, %v)", c.k, c.n, center, lo, hi)
		}
	}
	if _, _, _, err := Wilson(1, 0, 1.96); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestWilsonShrinksWithN(t *testing.T) {
	_, lo1, hi1, _ := Wilson(5, 10, 1.96)
	_, lo2, hi2, _ := Wilson(500, 1000, 1.96)
	if hi2-lo2 >= hi1-lo1 {
		t.Fatal("interval did not shrink with more data")
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x + 3
	f, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(f.Slope, 2, 1e-12) || !almost(f.Intercept, 3, 1e-12) || !almost(f.R2, 1, 1e-12) {
		t.Fatalf("fit = %+v", f)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := LinearFit([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Fatal("constant x accepted")
	}
}

func TestLinearFitConstantY(t *testing.T) {
	f, err := LinearFit([]float64{1, 2, 3}, []float64{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(f.Slope, 0, 1e-12) || !almost(f.R2, 1, 1e-12) {
		t.Fatalf("fit = %+v", f)
	}
}

func TestFitPowerLawRecoversExponent(t *testing.T) {
	xs := []float64{10, 20, 40, 80, 160}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * math.Pow(x, 1.5)
	}
	f, err := FitPowerLaw(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(f.Exponent, 1.5, 1e-9) || !almost(f.Constant, 3, 1e-6) {
		t.Fatalf("fit = %+v", f)
	}
}

func TestFitPowerLawRejectsNonPositive(t *testing.T) {
	if _, err := FitPowerLaw([]float64{1, 2}, []float64{0, 1}); err == nil {
		t.Fatal("zero y accepted")
	}
	if _, err := FitPowerLaw([]float64{-1, 2}, []float64{1, 1}); err == nil {
		t.Fatal("negative x accepted")
	}
}

func TestFitExponentialRecoversBase(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 0.5 * math.Pow(1.25, x)
	}
	f, err := FitExponential(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(f.Base, 1.25, 1e-9) || !almost(f.Constant, 0.5, 1e-9) {
		t.Fatalf("fit = %+v", f)
	}
	if !almost(f.Rate, math.Log(1.25), 1e-9) {
		t.Fatalf("rate = %v", f.Rate)
	}
}

func TestFitExponentialNoisyStillClose(t *testing.T) {
	xs := make([]float64, 12)
	ys := make([]float64, 12)
	for i := range xs {
		x := float64(i + 1)
		xs[i] = x
		noise := 1 + 0.05*math.Sin(float64(i)*2.3)
		ys[i] = 2 * math.Pow(1.6, x) * noise
	}
	f, err := FitExponential(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if f.Base < 1.5 || f.Base > 1.7 {
		t.Fatalf("base = %v, want ~1.6", f.Base)
	}
	if f.R2 < 0.99 {
		t.Fatalf("R2 = %v", f.R2)
	}
}
