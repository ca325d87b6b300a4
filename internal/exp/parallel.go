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

// maxTrials caps the trials of one sweep cell: trialSeed packs the
// trial index below bit 24 of cell<<24|trial, so trial 1<<24 of a cell
// would reuse the seed of trial 0 of the next cell.
const maxTrials = 1 << 24

// parCells runs fn(cell, trial) for every cell in [0, cells) and trial
// in [0, trials) across the config's worker budget, and returns each
// cell's results in trial order. It runs nothing and errors when trials
// exceeds maxTrials.
//
// This is the one idiom every experiment's Monte-Carlo sweep uses: the
// table first builds its list of cells (graphs and parameters), then
// runs the whole sweep as a single runner.MapCtx over the flat index
// i = cell*trials + trial, so workers flow from one cell into the next
// instead of meeting at a barrier after every cell. The closure derives
// all of its randomness from (cell, trial) via cfg.trialSeed or an
// equivalent split and computes one trial's observables into a small
// result value; the caller folds the cells in order exactly as a
// sequential loop would, so tables are bit-identical for every worker
// count. The error of the lowest failing (cell, trial) wins, and
// progress observes cells*trials trials in all.
func parCells[T any](cfg Config, cells, trials int, fn func(cell, trial int) (T, error)) ([][]T, error) {
	if trials > maxTrials {
		return nil, fmt.Errorf("exp: %d trials in one cell, more than the %d with distinct seeds", trials, maxTrials)
	}
	flat, err := runner.MapCtx(cfg.Context, runner.New(cfg.workers()), cells*trials, runner.Progress(cfg.Progress), func(i int) (T, error) {
		return fn(i/trials, i%trials)
	})
	if err != nil {
		return nil, err
	}
	out := make([][]T, cells)
	for c := range out {
		out[c] = flat[c*trials : (c+1)*trials : (c+1)*trials]
	}
	return out, nil
}

// buildAll returns build(x) for every x in xs, in order, or the first
// error: the per-parameter graphs a table builds before its sweep runs.
func buildAll[X, G any](xs []X, build func(X) (G, error)) ([]G, error) {
	out := make([]G, len(xs))
	for i, x := range xs {
		g, err := build(x)
		if err != nil {
			return nil, err
		}
		out[i] = g
	}
	return out, nil
}
