package percolation

import (
	"context"
	"errors"
	"fmt"

	"faultroute/internal/graph"
	"faultroute/internal/rng"
	"faultroute/internal/runner"
)

// ErrBadBracket is returned by FindThresholdCtx when the event
// probability does not bracket the target on [lo, hi].
var ErrBadBracket = errors.New("percolation: threshold target not bracketed")

// EventProbabilityCtx estimates Pr[event] by Monte Carlo over `trials`
// seeds split from (baseSeed, trial). The event must be deterministic in
// its seed, and safe for concurrent calls when workers > 1; the estimate
// is then identical for every workers value. A done ctx aborts it with
// ctx's error; progress, when non-nil, observes each completed trial.
func EventProbabilityCtx(ctx context.Context, trials int, baseSeed uint64, workers int, progress runner.Progress, event func(seed uint64) bool) (float64, error) {
	if trials <= 0 {
		return 0, nil
	}
	hitFlags, err := runner.MapCtx(ctx, runner.New(workers), trials, progress, func(t int) (bool, error) {
		return event(rng.Combine(baseSeed, uint64(t))), nil
	})
	if err != nil {
		return 0, err
	}
	hits := 0
	for _, h := range hitFlags {
		if h {
			hits++
		}
	}
	return float64(hits) / float64(trials), nil
}

// FindThresholdCtx locates the p at which the (monotone increasing in
// p) event probability crosses target, by bisection on [lo, hi] down to
// width tol. The event receives (p, seed). Each step's Monte-Carlo batch
// runs through EventProbabilityCtx with ctx, workers and progress, so
// the located threshold is identical for every workers value.
func FindThresholdCtx(ctx context.Context, lo, hi, target, tol float64, trials int, baseSeed uint64, workers int, progress runner.Progress, event func(p float64, seed uint64) bool) (float64, error) {
	if lo >= hi || tol <= 0 {
		return 0, fmt.Errorf("percolation: invalid bracket [%v, %v] or tol %v", lo, hi, tol)
	}
	probAt := func(p float64) (float64, error) {
		return EventProbabilityCtx(ctx, trials, rng.Combine(baseSeed, uint64(p*1e9)), workers, progress, func(seed uint64) bool {
			return event(p, seed)
		})
	}
	pl, err := probAt(lo)
	if err != nil {
		return 0, err
	}
	ph, err := probAt(hi)
	if err != nil {
		return 0, err
	}
	if pl > target || ph < target {
		return 0, fmt.Errorf("%w: Pr(lo)=%.3f Pr(hi)=%.3f target=%.3f",
			ErrBadBracket, pl, ph, target)
	}
	for hi-lo > tol {
		mid := (lo + hi) / 2
		pm, err := probAt(mid)
		if err != nil {
			return 0, err
		}
		if pm < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// GiantStats summarizes the component structure of one percolation
// configuration.
type GiantStats struct {
	P              float64
	GiantFraction  float64
	SecondFraction float64
	Components     uint64
}

// SampleFactory builds the percolation sample of one Monte-Carlo scan
// cell from its retention probability and split seed, returning the
// sample plus an optional release hook (nil when there is nothing to
// free) that the scan invokes once the cell's labeling is done. It is
// how the correlated failure models of internal/sim attach per-sample
// dead-vertex masks to a scan without this package knowing how masks are
// drawn; the default factory is plain New.
type SampleFactory func(p float64, seed uint64) (Sample, func())

// defaultFactory is the pure bond-percolation SampleFactory.
func defaultFactory(g graph.Graph) SampleFactory {
	return func(p float64, seed uint64) (Sample, func()) {
		return New(g, p, seed), nil
	}
}

// GiantScanCtx labels `trials` samples at each p and returns the mean
// giant and second-component fractions; the backbone of the E9 (AKS
// threshold) experiment. Every (row, trial) sample shards across one
// worker pool from a seed split from (baseSeed, row index, trial), and
// per-row folds run in trial order, so results are bit-identical for
// every workers value. A done ctx aborts the scan with ctx's error;
// progress, when non-nil, observes each labeled sample.
func GiantScanCtx(ctx context.Context, g graph.Graph, ps []float64, trials int, baseSeed uint64, workers int, progress runner.Progress) ([]GiantStats, error) {
	return GiantScanSampledCtx(ctx, g, ps, trials, baseSeed, workers, progress, defaultFactory(g))
}

// GiantScanSampledCtx is GiantScanCtx with every cell's sample built by
// newSample instead of plain bond percolation. Cell seeds are split
// exactly as in GiantScanCtx, so a factory that ignores its extra
// freedom reproduces GiantScanCtx byte for byte.
func GiantScanSampledCtx(ctx context.Context, g graph.Graph, ps []float64, trials int, baseSeed uint64, workers int, progress runner.Progress, newSample SampleFactory) ([]GiantStats, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("percolation: giant scan needs positive trials, got %d", trials)
	}
	type sample struct {
		giant, second float64
		components    uint64
	}
	samples, err := runner.MapCtx(ctx, runner.New(workers), len(ps)*trials, progress, func(flat int) (sample, error) {
		row, t := flat/trials, flat%trials
		seed := rng.Combine(baseSeed, uint64(row)<<32|uint64(t))
		s, release := newSample(ps[row], seed)
		if release != nil {
			defer release()
		}
		comps, err := Label(s)
		if err != nil {
			return sample{}, err
		}
		sizes := comps.SizesDescending()
		order := float64(g.Order())
		out := sample{giant: float64(sizes[0]) / order, components: comps.Count()}
		if len(sizes) > 1 {
			out.second = float64(sizes[1]) / order
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]GiantStats, len(ps))
	for i, p := range ps {
		acc := GiantStats{P: p}
		for t := 0; t < trials; t++ {
			s := samples[i*trials+t]
			acc.GiantFraction += s.giant
			acc.SecondFraction += s.second
			acc.Components += s.components
		}
		acc.GiantFraction /= float64(trials)
		acc.SecondFraction /= float64(trials)
		acc.Components /= uint64(trials)
		out[i] = acc
	}
	return out, nil
}
