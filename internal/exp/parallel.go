package exp

import (
	"fmt"

	"faultroute/internal/runner"
)

// workers resolves Config.Workers: non-positive means all cores.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runner.DefaultWorkers()
}

// maxTrials caps the trials of one parTrials call: trialSeed packs the
// trial index below bit 24 of cell<<24|trial, so trial 1<<24 of a cell
// would reuse the seed of trial 0 of the next cell.
const maxTrials = 1 << 24

// parTrials runs fn(trial) for trial in [0, trials) across the config's
// worker budget and returns the per-trial results in trial order. It
// runs nothing and errors when trials exceeds maxTrials.
//
// This is the one idiom every experiment's inner Monte-Carlo loop uses:
// the closure derives all of its randomness from the trial index (via
// cfg.trialSeed or an equivalent split), computes one trial's
// observables into a small result value, and the caller folds the
// ordered results exactly as the old sequential loop did — so tables
// are bit-identical for every worker count.
func parTrials[T any](cfg Config, trials int, fn func(trial int) (T, error)) ([]T, error) {
	if trials > maxTrials {
		return nil, fmt.Errorf("exp: %d trials in one cell, more than the %d with distinct seeds", trials, maxTrials)
	}
	return runner.MapCtx(cfg.Context, runner.New(cfg.workers()), trials, runner.Progress(cfg.Progress), fn)
}
