// Package core exposes the paper's central object — the routing
// complexity comp(A) of Definition 2 — as a measurement API: pick a
// topology, a failure probability, a router and a query model, and
// measure the distribution of probe counts between vertex pairs,
// conditioned on the pair being connected.
//
// It is the layer the public faultroute facade and the benchmark suite
// are built on; the experiment harness (internal/exp) shares the
// conditioning kernel, Condition.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"faultroute/internal/graph"
	"faultroute/internal/percolation"
	"faultroute/internal/probe"
	"faultroute/internal/rng"
	"faultroute/internal/route"
	"faultroute/internal/runner"
	"faultroute/internal/sim"
	"faultroute/internal/stats"
)

// ErrConditioning is returned by Condition, and wrapped by EstimateCtx,
// when the conditioning event {src ~ dst} did not occur within the
// per-trial retry budget — the pair is essentially never connected at
// these parameters.
var ErrConditioning = errors.New("core: conditioning failed ({src ~ dst} too rare at these parameters)")

// Mode selects the query model of Definition 1.
type Mode int

// Query models.
const (
	// ModeLocal enforces the locality rule: probes must touch the set of
	// vertices already reached from the source.
	ModeLocal Mode = iota
	// ModeOracle allows probing any edge ("oracle routing", Section 5).
	ModeOracle
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ModeOracle {
		return "oracle"
	}
	return "local"
}

// Spec fixes everything about a routing-complexity measurement except
// the randomness.
type Spec struct {
	// Graph is the base topology.
	Graph graph.Graph
	// P is the edge retention probability (failure probability is 1-P).
	P float64
	// Router is the algorithm under measurement.
	Router route.Router
	// Mode selects local or oracle probing.
	Mode Mode
	// Budget caps distinct probes per run (0 = unlimited); exceeding it
	// censors the run.
	Budget int
	// Fault layers a correlated failure model over the edge percolation:
	// each sample additionally kills the vertices the model draws for
	// that sample's seed. The zero value disables it (pure bond
	// percolation, the paper's setting).
	Fault sim.Fault
}

// validate returns an error for specs that cannot be measured.
func (s Spec) validate() error {
	if s.Graph == nil {
		return errors.New("core: spec has no graph")
	}
	if s.Router == nil {
		return errors.New("core: spec has no router")
	}
	if s.P < 0 || s.P > 1 {
		return fmt.Errorf("core: retention probability %v outside [0, 1]", s.P)
	}
	if s.Mode != ModeLocal && s.Mode != ModeOracle {
		return fmt.Errorf("core: unknown mode %d", s.Mode)
	}
	return nil
}

// Outcome reports one routing run on one percolation sample.
type Outcome struct {
	// Path is the open path found (nil when Err != nil).
	Path route.Path
	// Probes is the number of distinct edges probed — comp(A) for this
	// run.
	Probes int
	// Calls counts raw probe invocations including memoized repeats.
	Calls int
	// Err is nil on success, route.ErrNoPath when the pair is
	// disconnected, or wraps probe.ErrBudget when censored.
	Err error
}

// Run routes once on the percolation sample with the given seed and
// reports the outcome. Routing failures (no path / budget) are reported
// inside the Outcome; the error return is reserved for spec or
// infrastructure problems.
func Run(spec Spec, src, dst graph.Vertex, seed uint64) (Outcome, error) {
	if err := spec.validate(); err != nil {
		return Outcome{}, err
	}
	s, mask := spec.sample(seed)
	defer mask.Release()
	o := runOn(spec, s, src, dst)
	if o.Err == nil {
		if err := route.Validate(s, o.Path, src, dst); err != nil {
			return Outcome{}, invalidPath(spec, err)
		}
	}
	return o, nil
}

// sample draws the percolation sample with the given seed and attaches
// the spec's failure mask, which the caller releases once it is done
// with the sample.
func (spec Spec) sample(seed uint64) (percolation.Sample, *sim.Mask) {
	s := percolation.New(spec.Graph, spec.P, seed)
	mask := spec.Fault.Sample(spec.Graph, seed)
	if mask != nil {
		s = s.WithDead(mask)
	}
	return s, mask
}

// runOn builds the prober and routes once on a sample already drawn. The
// path is not validated.
func runOn(spec Spec, s percolation.Sample, src, dst graph.Vertex) Outcome {
	// Probers (and, through their arena, the routers) draw all trial
	// bookkeeping from the shared scratch pool; releasing on return is
	// what lets each worker reuse one warm set of tables across the
	// thousands of trials of an Estimate.
	var pr interface {
		probe.Prober
		Calls() int
		Release()
	}
	if spec.Mode == ModeOracle {
		pr = probe.NewOracle(s, spec.Budget)
	} else {
		pr = probe.NewLocal(s, src, spec.Budget)
	}
	defer pr.Release()
	path, err := spec.Router.Route(pr, src, dst)
	out := Outcome{Probes: pr.Count(), Calls: pr.Calls(), Err: err}
	if err == nil {
		out.Path = path
	}
	return out
}

// invalidPath is the error for a router's path that route.Validate
// rejected on a connected sample.
func invalidPath(spec Spec, err error) error {
	return fmt.Errorf("core: router %s returned an invalid path: %w", spec.Router.Name(), err)
}

// Complexity is the empirical routing-complexity distribution of a spec
// over conditioned trials.
type Complexity struct {
	stats.Summary
	// Trials is the number of successfully routed (uncensored) runs the
	// Summary aggregates.
	Trials int
	// Censored counts runs that hit the probe budget.
	Censored int
	// Rejected counts percolation samples discarded by conditioning
	// (pair not connected).
	Rejected int
}

// TrialResult is the outcome of one conditioned trial of an Estimate:
// either an accepted probe count, a censored run, or an error. Rejected
// counts the percolation samples the trial discarded while conditioning
// on {src ~ dst}.
type TrialResult struct {
	// Probes is comp(A) for this trial, valid when Accepted.
	Probes float64
	// Accepted reports a successfully routed (uncensored) run.
	Accepted bool
	// Censored reports a run that hit the probe budget.
	Censored bool
	// Rejected counts conditioning rejections within this trial.
	Rejected int
	// Err is non-nil for spec/infrastructure failures or when the
	// conditioning event never occurred within maxTries.
	Err error
}

// precheckExpansions caps the bidirectional search Condition runs on
// every sample before routing. In supercritical regimes the clusters
// outside the giant component are small, so most disconnected samples
// are rejected within it, before the router pays for them; a sample it
// leaves open goes to the router, whose validated path is the cheaper
// proof of {src ~ dst}. BenchmarkEstimateTrial's accept and reject rows
// measure the trade-off.
const precheckExpansions = 64

// Condition is Definition 2's rejection sampler, shared by EstimateTrial
// and the experiment suite. Try number try draws the sample
// draw(rng.Combine(trialSeed, try)), and the first of at most maxTries
// samples on which {src ~ dst} holds is accepted.
//
// It routes first. A bidirectional pre-check capped at
// precheckExpansions (percolation.ConnectedLazy) rejects samples with a
// small cluster on either side. run routes on every other sample, and a
// path that route.Validate accepts proves {src ~ dst} at once. Only a
// failed run — an error or an invalid path — finishes the exact search
// (percolation.Connected), which tells a disconnected sample apart from
// a run that failed on a connected one. The accepted sample, the
// rejection count and run's result on the accepted sample are therefore
// those of conditioning first and routing after, as long as run depends
// on its sample alone.
//
// runErr is run's error on the accepted sample, or route.Validate's
// error when run returned an invalid path there. err is ErrConditioning
// when no sample was connected (rejected is then maxTries), or the
// search's error on a graph too large to search.
func Condition(draw func(seed uint64) percolation.Sample, src, dst graph.Vertex, trialSeed uint64, maxTries int,
	run func(percolation.Sample) (route.Path, error)) (s percolation.Sample, rejected int, runErr, err error) {
	for try := 0; try < maxTries; try++ {
		s = draw(rng.Combine(trialSeed, uint64(try)))
		connected, decided, err := percolation.ConnectedLazy(s, src, dst, precheckExpansions)
		if err != nil {
			return percolation.Sample{}, try, nil, err
		}
		if decided && !connected {
			continue
		}
		path, runErr := run(s)
		if runErr == nil {
			runErr = route.Validate(s, path, src, dst)
		}
		if runErr != nil && !decided {
			if connected, err = percolation.Connected(s, src, dst); err != nil {
				return percolation.Sample{}, try, nil, err
			}
			if !connected {
				continue
			}
		}
		return s, try, runErr, nil
	}
	return percolation.Sample{}, maxTries, nil, ErrConditioning
}

// EstimateTrial runs trial number `trial` of an Estimate: it derives
// the trial's independent random stream from (seed, trial) by
// stream-splitting, conditions on {src ~ dst} with Condition (at most
// maxTries samples), and reports the routing run on the accepted
// sample. It is the parallel engine's unit of work: the result depends
// only on the arguments, never on which worker runs it.
func EstimateTrial(spec Spec, src, dst graph.Vertex, trial, maxTries int, seed uint64) TrialResult {
	var res TrialResult
	if err := spec.validate(); err != nil {
		res.Err = err
		return res
	}
	// The failure mask conditions right along with the bonds: {src ~ dst}
	// means connected in the surviving graph, and the router probes the
	// same surviving graph. Each draw releases the previous try's mask.
	var mask *sim.Mask
	defer func() { mask.Release() }()
	draw := func(seed uint64) percolation.Sample {
		mask.Release()
		var s percolation.Sample
		s, mask = spec.sample(seed)
		return s
	}
	var o Outcome
	_, rejected, runErr, err := Condition(draw, src, dst, rng.Combine(seed, uint64(trial)), maxTries,
		func(s percolation.Sample) (route.Path, error) {
			o = runOn(spec, s, src, dst)
			return o.Path, o.Err
		})
	res.Rejected = rejected
	switch {
	case errors.Is(err, ErrConditioning):
		res.Err = fmt.Errorf("%w: {%d ~ %d} did not occur in %d samples at p = %v",
			ErrConditioning, src, dst, maxTries, spec.P)
	case err != nil:
		res.Err = err
	case runErr == nil:
		res.Probes = float64(o.Probes)
		res.Accepted = true
	case o.Err == nil: // the router answered, but route.Validate rejected the path
		res.Err = invalidPath(spec, runErr)
	case errors.Is(runErr, probe.ErrBudget):
		res.Censored = true
	default:
		res.Err = fmt.Errorf("core: router failed on a connected pair: %w", runErr)
	}
	return res
}

// MergeTrials folds per-trial results — in trial order — into a single
// Complexity. Passing results in trial order is what makes the merge
// bit-identical to the sequential path regardless of how many workers
// produced them. The first error in trial order aborts the merge.
func MergeTrials(results []TrialResult) (Complexity, error) {
	var out Complexity
	probes := make([]float64, 0, len(results))
	for _, r := range results {
		if r.Err != nil {
			return Complexity{}, r.Err
		}
		out.Rejected += r.Rejected
		if r.Censored {
			out.Censored++
		}
		if r.Accepted {
			probes = append(probes, r.Probes)
		}
	}
	sum, err := stats.Summarize(probes, out.Censored)
	if err != nil && out.Censored == 0 {
		return Complexity{}, err
	}
	out.Summary = sum
	out.Trials = len(probes)
	return out, nil
}

// EstimateCtx measures the routing complexity of spec between src and
// dst over `trials` percolation samples conditioned on {src ~ dst},
// exactly as Definition 2 prescribes. Conditioning uses an exact
// cluster search and therefore requires a finite (labelable) graph;
// maxTries bounds the rejection sampling per trial (<= 0 selects 100).
//
// Trials shard across a worker pool (workers <= 0 selects all cores).
// Each trial's randomness is split from (seed, trial index), so the
// returned Complexity is bit-identical for every workers value. The
// estimate aborts with ctx's error once ctx is done (cancel or
// deadline), and progress — when non-nil — observes each completed
// trial; neither affects the numbers of a run that completes.
func EstimateCtx(ctx context.Context, spec Spec, src, dst graph.Vertex, trials, maxTries int, seed uint64, workers int, progress runner.Progress) (Complexity, error) {
	results, err := EstimateShardCtx(ctx, spec, src, dst, 0, trials, maxTries, seed, workers, progress)
	if err != nil {
		return Complexity{}, err
	}
	return MergeTrials(results)
}

// EstimateShardCtx computes the raw per-trial results of trials
// [offset, offset+count) of the estimate that EstimateCtx(spec, src,
// dst, trials, ...) runs over [0, trials). Trial number offset+i still
// derives its randomness from (seed, offset+i), so the rows returned
// here are exactly the rows a full run would produce for the same
// indices — which is what lets a distributed runner fan disjoint ranges
// out to different machines and fold them back with MergeTrials into a
// result bit-identical to a single-machine run. count bounds the work of
// THIS call; the caller owns the overall schedule.
func EstimateShardCtx(ctx context.Context, spec Spec, src, dst graph.Vertex, offset, count, maxTries int, seed uint64, workers int, progress runner.Progress) ([]TrialResult, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if offset < 0 {
		return nil, errors.New("core: trial offset must be non-negative")
	}
	if count <= 0 {
		return nil, errors.New("core: trials must be positive")
	}
	if maxTries <= 0 {
		maxTries = 100
	}
	return runner.MapCtx(ctx, runner.New(workers), count, progress, func(i int) (TrialResult, error) {
		r := EstimateTrial(spec, src, dst, offset+i, maxTries, seed)
		return r, r.Err
	})
}

// Request is one estimate within an EstimateBatchCtx call: a spec, a
// vertex pair, and the trial schedule, carrying its own seed so batch
// layout never affects results.
type Request struct {
	Spec     Spec
	Src, Dst graph.Vertex
	Trials   int
	MaxTries int
	Seed     uint64
}

// EstimateBatchCtx runs many estimates — a whole sweep row of vertex
// pairs and retention probabilities — through one shared worker pool,
// flattening all their trials into one work queue so the pool stays
// saturated even when each request has few trials. Results arrive in
// request order, bit-identical to calling EstimateCtx on each request;
// ctx and progress act as in EstimateCtx, across all requests.
func EstimateBatchCtx(ctx context.Context, reqs []Request, workers int, progress runner.Progress) ([]Complexity, error) {
	offsets := make([]int, len(reqs)+1)
	for i, r := range reqs {
		if err := r.Spec.validate(); err != nil {
			return nil, err
		}
		if r.Trials <= 0 {
			return nil, errors.New("core: trials must be positive")
		}
		offsets[i+1] = offsets[i] + r.Trials
	}
	total := offsets[len(reqs)]
	results, err := runner.MapCtx(ctx, runner.New(workers), total, progress, func(flat int) (TrialResult, error) {
		// Locate the request owning this flat index.
		ri := sort.Search(len(reqs), func(i int) bool { return offsets[i+1] > flat })
		req := reqs[ri]
		maxTries := req.MaxTries
		if maxTries <= 0 {
			maxTries = 100
		}
		r := EstimateTrial(req.Spec, req.Src, req.Dst, flat-offsets[ri], maxTries, req.Seed)
		return r, r.Err
	})
	if err != nil {
		return nil, err
	}
	out := make([]Complexity, len(reqs))
	for i := range reqs {
		c, err := MergeTrials(results[offsets[i]:offsets[i+1]])
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}
