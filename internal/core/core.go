// Package core exposes the paper's central object — the routing
// complexity comp(A) of Definition 2 — as a measurement API: pick a
// topology, a failure probability, a router and a query model, and
// measure the distribution of probe counts between vertex pairs,
// conditioned on the pair being connected.
//
// It is the layer the public faultroute facade and the benchmark suite
// are built on; the experiment harness (internal/exp) uses the same
// substrates with bespoke sweeps.
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

// ErrConditioning is returned by EstimateCtx when the conditioning event
// {src ~ dst} did not occur within the per-trial retry budget — the pair
// is essentially never connected at these parameters.
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
	s := percolation.New(spec.Graph, spec.P, seed)
	if mask := spec.Fault.Sample(spec.Graph, seed); mask != nil {
		defer mask.Release()
		s = s.WithDead(mask)
	}
	return runOn(spec, s, src, dst)
}

// runOn is Run on a sample already drawn: it builds the prober, routes
// and validates the returned path against s.
func runOn(spec Spec, s percolation.Sample, src, dst graph.Vertex) (Outcome, error) {
	// Probers (and, through their arena, the routers) draw all trial
	// bookkeeping from the shared scratch pool; releasing on return is
	// what lets each worker reuse one warm set of tables across the
	// thousands of trials of an Estimate.
	var pr probe.Prober
	switch spec.Mode {
	case ModeLocal:
		l := probe.NewLocal(s, src, spec.Budget)
		defer l.Release()
		pr = l
	case ModeOracle:
		o := probe.NewOracle(s, spec.Budget)
		defer o.Release()
		pr = o
	default:
		return Outcome{}, fmt.Errorf("core: unknown mode %d", spec.Mode)
	}
	path, err := spec.Router.Route(pr, src, dst)
	out := Outcome{Probes: pr.Count(), Err: err}
	if err == nil {
		out.Path = path
		if verr := route.Validate(s, path, src, dst); verr != nil {
			return Outcome{}, fmt.Errorf("core: router %s returned an invalid path: %w",
				spec.Router.Name(), verr)
		}
	}
	if c, ok := pr.(interface{ Calls() int }); ok {
		out.Calls = c.Calls()
	}
	return out, nil
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

// precheckExpansions caps the bidirectional search EstimateTrial runs on
// every sample before routing. In supercritical regimes the clusters
// outside the giant component are small, so most disconnected samples
// are rejected within it, before the router pays for them; a sample it
// leaves open goes to the router, whose validated path is the cheaper
// proof of {src ~ dst}. BenchmarkEstimateTrial's accept and reject rows
// measure the trade-off.
const precheckExpansions = 64

// EstimateTrial runs trial number `trial` of an Estimate: it derives
// the trial's independent random stream from (seed, trial) by
// stream-splitting, rejection-samples percolation configurations until
// {src ~ dst} holds (at most maxTries), and routes once on the accepted
// sample. It is the parallel engine's unit of work: the result depends
// only on the arguments, never on which worker runs it.
//
// Each try draws its bond sample and failure mask once. A short
// bidirectional pre-check (percolation.ConnectedLazy) rejects samples
// with a small cluster on either side; any other sample is routed
// before {src ~ dst} is decided, because an open src→dst path that
// route.Validate accepts proves the event and accepts the sample at
// once. Only a failed route — an error or an invalid path — finishes
// the exact search (percolation.Connected), which tells a rejected
// sample apart from a censored run or a router fault. Accept/reject
// decisions, the accepted sample and its routing run are therefore
// exactly those of conditioning first and routing after.
func EstimateTrial(spec Spec, src, dst graph.Vertex, trial, maxTries int, seed uint64) TrialResult {
	var res TrialResult
	if err := spec.validate(); err != nil {
		res.Err = err
		return res
	}
	trialSeed := rng.Combine(seed, uint64(trial))
	for try := 0; try < maxTries; try++ {
		o, conn, err := conditionedRun(spec, src, dst, rng.Combine(trialSeed, uint64(try)))
		if err != nil {
			res.Err = err
			return res
		}
		if !conn {
			res.Rejected++
			continue
		}
		switch {
		case o.Err == nil:
			res.Probes = float64(o.Probes)
			res.Accepted = true
		case errors.Is(o.Err, probe.ErrBudget):
			res.Censored = true
		default:
			res.Err = fmt.Errorf("core: router failed on a connected pair: %w", o.Err)
		}
		return res
	}
	res.Err = fmt.Errorf(
		"%w: {%d ~ %d} did not occur in %d samples at p = %v",
		ErrConditioning, src, dst, maxTries, spec.P)
	return res
}

// conditionedRun is one try of EstimateTrial on the sample with the
// given seed. connected reports {src ~ dst}; when it holds, o and err are
// the routing run on that sample. When it does not, the sample is
// rejected and err is nil, unless the graph is too large to search.
func conditionedRun(spec Spec, src, dst graph.Vertex, seed uint64) (o Outcome, connected bool, err error) {
	// The failure mask conditions right along with the bonds: {src ~ dst}
	// means connected in the surviving graph, and the router probes the
	// same surviving graph.
	s := percolation.New(spec.Graph, spec.P, seed)
	if mask := spec.Fault.Sample(spec.Graph, seed); mask != nil {
		defer mask.Release()
		s = s.WithDead(mask)
	}
	connected, decided, err := percolation.ConnectedLazy(s, src, dst, precheckExpansions)
	if err != nil || (decided && !connected) {
		return Outcome{}, false, err
	}
	o, err = runOn(spec, s, src, dst)
	if decided || (err == nil && o.Err == nil) {
		return o, true, err
	}
	// The route failed on a sample the pre-check left open: only the
	// exact search tells a disconnected sample from a censored run or a
	// router fault.
	connected, cerr := percolation.Connected(s, src, dst)
	if !connected {
		return Outcome{}, false, cerr
	}
	return o, true, err
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
