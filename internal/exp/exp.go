// Package exp is the experiment harness: it regenerates, as numeric
// tables, every theorem-shaped claim of the paper's evaluation (the paper
// is pure theory, so its "tables and figures" are its theorems;
// EXPERIMENTS.md maps each to an experiment ID E1..E21). Each experiment
// is a pure function of a Config — same seed, same table, for any worker
// count — and renders plain-text tables via Table. A table first builds
// its sweep's cells (graphs and parameters), then runs every (cell,
// trial) pair as one map on the internal/runner pool (parCells), with
// up to Config.Workers trials at once across cell borders, and folds
// the results into rows in cell order.
package exp

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"faultroute/internal/rng"
)

// ErrUnknownExperiment is returned by ByID for IDs not in the registry.
var ErrUnknownExperiment = errors.New("exp: unknown experiment")

// Scale selects the size of an experiment run.
type Scale int

// Experiment scales. Quick keeps every experiment under a few seconds
// (used by tests and smoke runs); Full reproduces the EXPERIMENTS.md
// tables (minutes in total).
const (
	ScaleQuick Scale = iota
	ScaleFull
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	if s == ScaleFull {
		return "full"
	}
	return "quick"
}

// Config parameterizes an experiment run.
type Config struct {
	// Seed drives all randomness; identical configs produce identical
	// tables.
	Seed uint64
	// Scale selects quick (CI-sized) or full (paper-sized) parameters.
	Scale Scale
	// Workers bounds the trial-level parallelism of the run (<= 0 means
	// all cores). A table runs its whole sweep as one map over (cell,
	// trial) pairs, so a worker that finishes its share of one cell
	// moves on to the next cell's trials. Every trial's randomness is
	// split from (Seed, cell, trial), so tables are bit-identical for
	// every Workers value — Workers only sets how fast they arrive.
	Workers int
	// Context, when non-nil, cancels the run early: trial loops stop
	// claiming work once it is done and the experiment returns the
	// context's error. It never alters a run that completes.
	Context context.Context
	// Progress, when non-nil, observes completed work: it is called with
	// the number of newly finished trials (currently always 1 per call)
	// as the run advances. It must be safe for concurrent calls and, like
	// Context, has no effect on the table — only Seed, Scale and the
	// experiment ID are part of a run's identity.
	Progress func(delta int)
}

// qf returns quick at ScaleQuick and full otherwise — the one-line
// parameter selector used throughout the experiment files.
func (c Config) qf(quick, full int) int {
	if c.Scale == ScaleFull {
		return full
	}
	return quick
}

// qfF is qf for float64 parameters.
func (c Config) qfF(quick, full float64) float64 {
	if c.Scale == ScaleFull {
		return full
	}
	return quick
}

// qfInts is qf for int slices (parameter sweeps).
func (c Config) qfInts(quick, full []int) []int {
	if c.Scale == ScaleFull {
		return full
	}
	return quick
}

// qfFloats is qf for float64 slices.
func (c Config) qfFloats(quick, full []float64) []float64 {
	if c.Scale == ScaleFull {
		return full
	}
	return quick
}

// trialSeed derives the deterministic seed of one trial within one cell
// of a parameter sweep.
func (c Config) trialSeed(cell, trial uint64) uint64 {
	return rng.Combine(c.Seed, cell<<24|trial)
}

// Experiment is one reproducible unit of the evaluation.
type Experiment struct {
	// ID is the experiment identifier, e.g. "E3".
	ID string
	// Title is a one-line description.
	Title string
	// Claim cites the paper result the experiment reproduces.
	Claim string
	// Run executes the experiment and returns its table.
	Run func(cfg Config) (*Table, error)
}

// registry is populated by the e*.go files' register calls at init time
// (one call per file keeps registration next to the implementation).
var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("exp: duplicate experiment %s", e.ID))
	}
	registry[e.ID] = e
}

// All returns every experiment in ID order (E1, E2, ..., numeric-aware).
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		return experimentOrder(out[i].ID) < experimentOrder(out[j].ID)
	})
	return out
}

// experimentOrder sorts "E2" before "E10".
func experimentOrder(id string) int {
	n := 0
	for _, r := range id {
		if r >= '0' && r <= '9' {
			n = n*10 + int(r-'0')
		}
	}
	return n
}

// ByID looks an experiment up by its identifier.
func ByID(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("%w: %q", ErrUnknownExperiment, id)
	}
	return e, nil
}

// Param describes one submission parameter of an experiment run — the
// machine-readable schema a serving layer exposes so clients can build
// job requests without reading Go source.
type Param struct {
	Name    string `json:"name"`
	Type    string `json:"type"`
	Default string `json:"default"`
	Doc     string `json:"doc"`
}

// Info is the machine-readable registry entry for one experiment:
// identity plus the parameter schema of a run.
type Info struct {
	ID     string  `json:"id"`
	Title  string  `json:"title"`
	Claim  string  `json:"claim"`
	Params []Param `json:"params"`
}

// configParams is the submission-parameter schema shared by every
// experiment: the Config fields that select a run. Workers is listed for
// completeness but is explicitly excluded from a run's identity.
func configParams() []Param {
	return []Param{
		{Name: "seed", Type: "uint64", Default: "1",
			Doc: "base random seed; identical (id, seed, scale) produce identical tables"},
		{Name: "scale", Type: "string", Default: "quick",
			Doc: "parameter scale: quick (CI-sized) or full (paper-sized)"},
		{Name: "workers", Type: "int", Default: "0",
			Doc: "trial-level parallelism, 0 = all cores; never affects the table"},
	}
}

// Info returns the experiment's machine-readable registry entry.
func (e Experiment) Info() Info {
	return Info{ID: e.ID, Title: e.Title, Claim: e.Claim, Params: configParams()}
}

// Infos returns the machine-readable registry in ID order — the payload
// of the serving layer's experiment listing.
func Infos() []Info {
	all := All()
	out := make([]Info, len(all))
	for i, e := range all {
		out[i] = e.Info()
	}
	return out
}
