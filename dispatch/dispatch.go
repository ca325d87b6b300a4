// Package dispatch is the distributed implementation of api.Runner: a
// Pool that fans one request out across many faultrouted backends and
// folds the pieces back into the request's canonical result bytes.
//
// It is the fourth entry point of the execution surface — after the
// in-process faultroute.Local, the faultroute/serve HTTP service, and
// the single-backend faultroute/client — and the first that scales a
// single estimate past one machine. The byte-identity guarantee of the
// Runner API survives intact: a Pool over any number of backends, at any
// shard layout, with any pattern of mid-run failures, hedges and
// re-dispatches, returns exactly the bytes faultroute.Local computes
// for the same request.
//
// An estimate's shard layout follows from its trial count alone: an
// estimate of at most 16 trials dispatches whole, and a larger one
// splits into at most eight shards of max(16, ceil(trials/8)) trials.
// Every Pool, whatever its fleet or history, therefore gives an
// estimate the same shard keys, and a repeat from a fresh Pool is read
// back from the backends' stores. Shard layout never changes bytes:
// api.MergeShards folds per-trial rows in trial order.
//
// Internally the Pool is three layers, each small enough to test in
// isolation:
//
//   - Placement (placement.go) names each sub-job's owner: the live
//     members are ranked by a rendezvous hash of the sub-job's content
//     key, and every member owns an even share of one estimate's
//     shards (of S shards over n members, floor(S/n) or ceil(S/n)).
//     The Pool reads the owner's stored result with one GET
//     /v1/results/{key} (and, on a miss, its successor's: the next
//     member in placement order, where hedges and failovers put their
//     results), submits the sub-job to the owner on a miss, and fails
//     over down the order. A repeated request therefore lands where its
//     results already sit, and the requests a cached shard costs do not
//     grow with the fleet. A submitted sub-job is followed with one
//     client.WatchJob: the backend answers the submission with the
//     job's event stream, which ends with the result bytes, so a fresh
//     sub-job costs one request after its stored reads.
//   - The hedger (hedger.go) watches for stragglers: an attempt that
//     outlives twice what the fleet's median backend would take is
//     speculatively re-dispatched to the next-ranked backend, the first
//     completed result wins, and the loser is canceled remotely (DELETE
//     /v1/jobs/{id}, naming the job of the loser's latest submission).
//     Determinism makes the race free: both attempts compute identical
//     bytes. Hedging is also how faster backends overtake the shards of
//     a persistently slow owner.
//   - The membership layer (membership.go) owns the live backend set.
//     WithResolver re-resolves it between jobs: joiners are admitted,
//     removed backends drain (they finish or fail over their running
//     attempts and leave placement immediately).
//
// Fan-out per request kind: estimates are sharded into trial-range
// sub-jobs (api.ShardSpec), each a content-addressed job of its own;
// experiments and percolation sweeps dispatch whole to their owner
// (their results are not trial-addressable over the wire), so DoBatch
// spreads many such requests across the fleet by their keys.
//
// Failure handling leans on the same determinism: every sub-job is a
// pure function of its spec, so when a backend dies mid-shard the Pool
// re-dispatches the shard to the next-ranked backend and the retried
// range recomputes identical rows. Failing backends cool down; a
// cooled-down backend that recovers (next successful Health probe)
// takes its keys back at once, with its latency estimate reset to the
// fleet median so a crash's worst-case EWMA cannot outlive the crash.
// Every body read back from a backend, stored or freshly computed, is
// checked against the shape and trial range its request asks for
// before the Pool returns it.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"faultroute/api"
	"faultroute/client"
	"faultroute/internal/metrics"
)

// Dispatch series, registered once in the process-wide metrics
// registry: a Pool is not an HTTP service, so its series surface on
// whatever /v1/metrics endpoint the process exposes (an embedded
// serve.Service appends metrics.Process() to every scrape). Pools in
// one process share the counters, the same way a process shares its
// runtime metrics; per-pool views come from Pool.Stats.
var (
	mSubJobs = metrics.Process().Counter("faultroute_dispatch_subjobs_total",
		"Sub-job dispatch attempts sent to backends, re-dispatches and hedges included.")
	mFailovers = metrics.Process().Counter("faultroute_dispatch_failovers_total",
		"Sub-jobs re-dispatched to another backend after a transient failure.")
	mBackendsDown = metrics.Process().Counter("faultroute_dispatch_backends_down_total",
		"Backends marked down for a cooldown after a failed probe or sub-job.")
	mPeerFills = metrics.Process().Counter("faultroute_dispatch_peer_fills_total",
		"Sub-jobs answered from a stored result at their owner or its successor (GET /v1/results/{key}), no job submitted.")
	mHedges = metrics.Process().Counter("faultroute_dispatch_hedges_total",
		"Speculative duplicate attempts launched against straggling sub-jobs.")
	mHedgeWins = metrics.Process().Counter("faultroute_dispatch_hedge_wins_total",
		"Hedged sub-jobs whose speculative attempt finished first.")
	mHedgeCancels = metrics.Process().Counter("faultroute_dispatch_hedge_cancels_total",
		"Losing attempts of settled hedge races canceled on their backend (DELETE /v1/jobs/{id}).")
	mMembersJoined = metrics.Process().Counter("faultroute_dispatch_members_joined_total",
		"Backends admitted into a pool by membership re-resolution (WithResolver).")
	mMembersLeft = metrics.Process().Counter("faultroute_dispatch_members_left_total",
		"Backends drained out of a pool by membership re-resolution (WithResolver).")
	mBackendEWMA = metrics.Process().GaugeVec("faultroute_dispatch_backend_trial_ewma_us",
		"Observed per-trial sub-job completion latency EWMA by backend, in microseconds; the fleet median sets hedge timing.",
		"backend")
)

// Pool dispatches requests across a set of faultrouted backends.
// Construct with New; a Pool is safe for concurrent use — concurrent
// Do/Watch/DoBatch calls share the in-flight sub-job bound. The
// backend set is fixed unless WithResolver makes membership live.
type Pool struct {
	members  *memberSet
	hedge    hedger
	sem      chan struct{} // bounds in-flight sub-jobs, pool-wide
	cooldown time.Duration

	stats poolStats
}

// poolStats is the Pool's own view of the process-wide counters.
type poolStats struct {
	subJobs, failovers      atomic.Uint64
	hedges, hedgeWins       atomic.Uint64
	hedgeCancels, peerFills atomic.Uint64
}

// PoolStats is a point-in-time snapshot of one Pool's dispatch
// activity (the process-wide faultroute_dispatch_* series aggregate
// every pool in the process; this is the per-pool split).
type PoolStats struct {
	// SubJobs counts sub-job attempts sent to backends, re-dispatches
	// and hedges included.
	SubJobs uint64
	// Failovers counts sub-jobs re-dispatched after a transient failure.
	Failovers uint64
	// Hedges counts speculative duplicate attempts launched; HedgeWins
	// counts races the speculative attempt won; HedgeCancels counts
	// losing attempts successfully canceled on their backend.
	Hedges, HedgeWins, HedgeCancels uint64
	// PeerFills counts sub-jobs answered from a stored result: a GET
	// /v1/results/{key} to the sub-job's owner or, after a miss there,
	// to its successor; no job submitted.
	PeerFills uint64
}

// Stats returns the Pool's cumulative dispatch counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		SubJobs:      p.stats.subJobs.Load(),
		Failovers:    p.stats.failovers.Load(),
		Hedges:       p.stats.hedges.Load(),
		HedgeWins:    p.stats.hedgeWins.Load(),
		HedgeCancels: p.stats.hedgeCancels.Load(),
		PeerFills:    p.stats.peerFills.Load(),
	}
}

// Option configures a Pool.
type Option func(*settings)

type settings struct {
	clientOpts []client.Option
	resolver   func() []string
	cooldown   time.Duration
	hedging    bool
	hedgeAfter time.Duration
}

// WithClientOptions forwards options (retry policy, HTTP client) to
// every per-backend client the Pool constructs.
func WithClientOptions(opts ...client.Option) Option {
	return func(s *settings) { s.clientOpts = append(s.clientOpts, opts...) }
}

// WithResolver makes membership live: resolve is consulted between
// jobs (at the start of every Do/Watch/DoBatch request) and the pool's
// backend set follows it. Newly resolved URLs join with a fresh health
// state; URLs that disappear drain — they take no new sub-jobs, and
// attempts already running against them finish or fail over on their
// own. Kept backends retain their health marks and latency estimates.
// A resolver returning an empty list is ignored (indistinguishable
// from an outage of the resolver itself). When New is called with an
// empty target list, the resolver provides the initial set.
func WithResolver(resolve func() []string) Option {
	return func(s *settings) { s.resolver = resolve }
}

// WithCooldown sets how long a backend that failed a sub-job is passed
// over by placement (default 15s; it is still used as a last resort
// when every backend is marked down). A successful Health probe ends the
// cooldown early and resets the backend's latency estimate to the
// fleet median.
func WithCooldown(d time.Duration) Option { return func(s *settings) { s.cooldown = d } }

// WithHedging enables or disables straggler speculation (default on,
// in pools with at least two backends): an attempt that outlives its
// expected duration — the fleet-median per-trial latency EWMA times
// the sub-job's trial count, floored by WithHedgeAfter — is duplicated
// onto the owner's successor (the next untried backend in placement
// order), so a persistently slow owner loses its shards to faster
// backends. The first completed result wins and the loser is canceled
// remotely (DELETE /v1/jobs/{id}). By the determinism contract both
// attempts compute identical bytes, so hedging changes tail latency,
// never output.
func WithHedging(enabled bool) Option { return func(s *settings) { s.hedging = enabled } }

// WithHedgeAfter sets the minimum time an attempt runs before it may
// be hedged (<= 0 restores the default of 400ms). With no latency
// observations yet this floor IS the hedge delay; once EWMAs exist the
// delay is the larger of the floor and twice the attempt's expected
// duration.
func WithHedgeAfter(d time.Duration) Option { return func(s *settings) { s.hedgeAfter = d } }

// hedgeFactor scales an attempt's expected duration into its hedge
// trigger: only attempts at least this many times over their estimate
// are treated as stragglers.
const hedgeFactor = 2.0

// inFlightPerBackend bounds the sub-jobs a Pool keeps outstanding
// across all concurrent calls, per backend it starts with: the bound is
// what keeps a huge estimate from flooding every backend's submission
// queue at once.
const inFlightPerBackend = 4

// ParseBackends splits a comma-separated backend list — the form the
// CLIs' -backends flag takes — into base URLs, trimming whitespace and
// dropping empty entries.
func ParseBackends(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// New returns a Pool over the given faultrouted base URLs, e.g.
// []string{"http://host-a:8080", "http://host-b:8080"}; a URL listed
// twice is one backend. With WithResolver, targets may be empty — the
// resolver provides the initial set (and every later one). New performs
// no I/O beyond that initial resolution; use Health to probe the
// backends.
func New(targets []string, opts ...Option) (*Pool, error) {
	s := settings{cooldown: 15 * time.Second, hedging: true}
	for _, opt := range opts {
		opt(&s)
	}
	if len(targets) == 0 && s.resolver != nil {
		targets = s.resolver()
	}
	if len(targets) == 0 {
		return nil, errors.New("dispatch: no backends configured")
	}
	if s.hedgeAfter <= 0 {
		s.hedgeAfter = 400 * time.Millisecond
	}
	members := newMemberSet(targets, s.resolver, s.clientOpts)
	return &Pool{
		members:  members,
		hedge:    hedger{enabled: s.hedging, floor: s.hedgeAfter, factor: hedgeFactor},
		sem:      make(chan struct{}, inFlightPerBackend*len(members.members)),
		cooldown: s.cooldown,
	}, nil
}

// Compile-time check: a Pool is interchangeable with Local and Client.
var _ api.Runner = (*Pool)(nil)

// Backends returns the pool's current base URLs, in membership order.
// With WithResolver the list reflects the membership as of the last
// refresh (New, or the start of the most recent request).
func (p *Pool) Backends() []string {
	members := p.members.snapshot()
	out := make([]string, len(members))
	for i, m := range members {
		out[i] = m.url
	}
	return out
}

// BackendHealth is one backend's probe result from Health.
type BackendHealth struct {
	// URL is the backend's base URL.
	URL string
	// Err is nil when the backend answered its health endpoint.
	Err error
	// Health is the backend's report, meaningful when Err is nil.
	Health api.Health
}

// Health re-resolves membership, probes every backend's /v1/healthz
// concurrently and returns the reports in membership order. Unreachable
// backends are marked down (entering the cooldown); a backend that
// answers after having been down recovers immediately — its cooldown
// ends, it owns its keys again, and its latency estimate resets to the
// fleet median, so a stale worst-case EWMA cannot outlive the outage.
// A Health call therefore doubles as a way to warm (or repair) the
// Pool's view of the cluster before dispatching.
func (p *Pool) Health(ctx context.Context) []BackendHealth {
	p.members.refresh()
	members := p.members.snapshot()
	median := fleetMedianEWMA(members)
	out := make([]BackendHealth, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			h, err := m.c.Health(ctx)
			out[i] = BackendHealth{URL: m.url, Err: err, Health: h}
			switch {
			case err == nil:
				m.recover(median)
			case ctx.Err() == nil:
				// A probe that died because the CALLER's context expired says
				// nothing about the backend — marking the whole cluster down
				// off a canceled warm-up would poison placement for a cooldown.
				m.markDown(p.cooldown)
			}
		}(i, m)
	}
	wg.Wait()
	return out
}

// Do executes the request across the pool and returns its canonical
// result — byte-identical to faultroute.Local for the same request.
func (p *Pool) Do(ctx context.Context, req api.Request) (api.Result, error) {
	return p.run(ctx, req, nil)
}

// Watch is Do with aggregated progress events: onEvent observes a
// leading running event, monotonically non-decreasing running counters
// summed across every sub-job (re-dispatched or hedged shards never
// move the sum backwards), and a trailing done event. Events may
// arrive from internal goroutines but are delivered sequentially.
func (p *Pool) Watch(ctx context.Context, req api.Request, onEvent func(api.Event)) (api.Result, error) {
	return p.run(ctx, req, onEvent)
}

// DoBatch executes many requests concurrently across the pool, results
// in request order. Each result is byte-identical to Do of the same
// request; the pool-wide in-flight bound keeps a large batch from
// flooding the backends. The first error cancels the rest of the batch.
func (p *Pool) DoBatch(ctx context.Context, reqs []api.Request) ([]api.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make([]api.Result, len(reqs))
	var (
		fail  sync.Once
		cause error
		wg    sync.WaitGroup
	)
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req api.Request) {
			defer wg.Done()
			res, err := p.run(ctx, req, nil)
			if err != nil {
				// Record the originating failure; sibling requests then die
				// with a bare "context canceled" that must not mask it.
				fail.Do(func() { cause = err; cancel() })
				return
			}
			out[i] = res
		}(i, req)
	}
	wg.Wait()
	if cause != nil {
		return nil, cause
	}
	return out, nil
}

// run compiles the request locally (the Pool validates and normalizes
// with the same codec every backend uses), refreshes membership — the
// between-jobs boundary where backends join and leave — then either
// shards the request or dispatches it whole.
func (p *Pool) run(ctx context.Context, req api.Request, onEvent func(api.Event)) (api.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	plan, err := api.Compile(req)
	if err != nil {
		return api.Result{}, err
	}
	p.members.refresh()
	members := p.members.snapshot()
	norm := plan.Request
	agg := newAggregator(onEvent, plan.Total)
	agg.start()
	var res api.Result
	if ranges := shardRanges(norm); ranges != nil {
		res, err = p.runSharded(ctx, norm, plan.Key, ranges, members, agg)
	} else {
		res, err = p.dispatch(ctx, plan, rank(members, plan.Key), 0, agg, func(r api.Result) error { return verify(r, norm) })
	}
	if err != nil {
		return api.Result{}, err
	}
	agg.finish()
	return res, nil
}

// The shard layout rule: an estimate of more than minShardTrials trials
// splits into at most maxShards shards of at least minShardTrials
// trials each. 64 trials give 4 × 16, 96 give 6 × 16, and 1,200 give
// 8 × 150. Every shard costs a sub-job round trip when fresh and a
// stored read when repeated, so the cap keeps both few, and the floor
// keeps a shard's trials worth its round trip.
const (
	minShardTrials = 16
	maxShards      = 8
)

// shardRanges returns the trial ranges an estimate splits into, or nil
// when the request dispatches whole: non-estimates, sub-jobs already
// carrying a shard, and estimates of at most minShardTrials trials. The
// layout depends on the trial count alone, never on the fleet or on
// observed latency, so every Pool gives an estimate the same shard
// keys and a repeat finds them stored.
func shardRanges(norm api.Request) []api.ShardSpec {
	if norm.Kind != api.KindEstimate || norm.Estimate == nil || norm.Estimate.Shard != nil {
		return nil
	}
	trials := norm.Estimate.Trials
	if trials <= minShardTrials {
		return nil
	}
	size := max(minShardTrials, (trials+maxShards-1)/maxShards)
	ranges := make([]api.ShardSpec, 0, (trials+size-1)/size)
	for off := 0; off < trials; off += size {
		ranges = append(ranges, api.ShardSpec{Offset: off, Count: min(size, trials-off)})
	}
	return ranges
}

// runSharded fans the estimate's trial ranges out as concurrent
// sub-jobs, placed together by assign, and merges the rows back into
// the parent's canonical bytes.
func (p *Pool) runSharded(ctx context.Context, norm api.Request, key string, ranges []api.ShardSpec, members []*member, agg *aggregator) (api.Result, error) {
	plans := make([]*api.Plan, len(ranges))
	keys := make([]string, len(ranges))
	for i, r := range ranges {
		spec := *norm.Estimate
		spec.Shard = &r
		plan, err := api.Compile(api.Request{Kind: api.KindEstimate, Estimate: &spec, Workers: norm.Workers})
		if err != nil {
			return api.Result{}, err
		}
		plans[i], keys[i] = plan, plan.Key
	}
	orders := assign(members, keys)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	shards := make([]api.ShardResult, len(ranges))
	// The first failing shard is the cause; its siblings then die with
	// "context canceled", which must never mask the real error.
	var (
		fail  sync.Once
		cause error
		wg    sync.WaitGroup
	)
	abort := func(err error) {
		fail.Do(func() { cause = err; cancel() })
	}
	for i := range ranges {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// The check keeps the rows it decodes, so each shard body is
			// decoded once.
			_, err := p.dispatch(ctx, plans[i], orders[i], i, agg, func(res api.Result) (err error) {
				shards[i], err = mustShard(res, ranges[i])
				return err
			})
			if err != nil {
				abort(err)
			}
		}(i)
	}
	wg.Wait()
	if cause != nil {
		return api.Result{}, cause
	}
	body, err := api.MergeShards(shards)
	if err != nil {
		return api.Result{}, err
	}
	return api.Result{Kind: norm.Kind, Key: key, Body: body}, nil
}

// mustShard decodes a sub-job result's per-trial rows and verifies they
// are exactly the range that was requested. MergeShards only checks
// contiguity from trial 0, so without this a short (or shifted) shard
// from a version-skewed backend would merge silently into wrong bytes
// under the parent's content address.
func mustShard(res api.Result, want api.ShardSpec) (api.ShardResult, error) {
	sr, err := res.Shard()
	if err != nil {
		return api.ShardResult{}, fmt.Errorf("dispatch: decoding shard result: %w", err)
	}
	if sr.Offset != want.Offset || len(sr.Rows) != want.Count {
		return api.ShardResult{}, fmt.Errorf(
			"dispatch: backend returned shard [offset %d, %d rows], want [offset %d, %d rows]",
			sr.Offset, len(sr.Rows), want.Offset, want.Count)
	}
	return sr, nil
}

// verify checks that a result body has the shape its request asks for:
// a shard's rows must be exactly the requested range (see mustShard),
// and a whole result must decode strictly as its kind's result type. A
// content address hashes the spec, not the result, so shape and range
// are all a body read back from a backend can be checked against: a
// body of another shape or range fails, another request's result of the
// same shape and range does not.
func verify(res api.Result, req api.Request) error {
	var err error
	switch {
	case req.Kind == api.KindEstimate && req.Estimate.Shard != nil:
		_, err = mustShard(res, *req.Estimate.Shard)
		return err
	case req.Kind == api.KindEstimate:
		_, err = res.Estimate()
	case req.Kind == api.KindExperiment:
		_, err = res.Table()
	case req.Percolation.Clusters:
		_, err = res.Clusters()
	default:
		_, err = res.Giant()
	}
	if err != nil {
		return fmt.Errorf("dispatch: backend result does not fit the request: %w", err)
	}
	return nil
}

// storedReadTimeout bounds the read of a sub-job's stored result, both
// GETs together. The deadline is what keeps a dead or wedged owner from
// stalling fresh work: the sub-job then goes through the attempt loop.
const storedReadTimeout = 250 * time.Millisecond

// dispatch runs one sub-job, compiled to plan, to completion and
// returns the first result that passes check: it answers from a stored
// result at the owner or its successor when there is one, and otherwise
// submits down the sub-job's placement order, hedging stragglers and
// failing over on transient errors. A sub-job is tried on up to one
// more backend than its placement order holds, so a single dead backend
// can never fail a request. Only transient failures (network errors,
// 5xx responses, remote cancellation) move it on; a deterministic job
// failure is final at once, because it would fail identically
// everywhere. A body check rejects is a miss at the stored read and a
// transient failure of its attempt. check runs on the caller's
// goroutine, one body at a time, so it may keep what it decodes. slot
// identifies the sub-job to the progress aggregator. The call holds one
// in-flight token for its whole duration (read, submit, watch, fetch,
// retries, hedges — a hedge races under its primary's token rather than
// consuming one).
func (p *Pool) dispatch(ctx context.Context, plan *api.Plan, order []*member, slot int, agg *aggregator, check func(api.Result) error) (api.Result, error) {
	req := plan.Request
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		return api.Result{}, ctx.Err()
	}
	defer func() { <-p.sem }()

	if res, ok := p.readStored(ctx, order, req.Kind, plan.Key, check); ok {
		agg.observe(slot, plan.Total)
		return res, nil
	}

	attempts := len(order) + 1
	var lastErr error
	tried := make(map[*member]bool, attempts)
	for attempt := 0; attempt < attempts; attempt++ {
		m := pick(order, tried)
		tried[m] = true
		if attempt > 0 {
			mFailovers.Inc()
			p.stats.failovers.Add(1)
		}
		res, err := p.runAttempt(ctx, m, req, slot, agg, check, order, tried)
		if err == nil {
			return res, nil
		}
		if ctx.Err() != nil {
			return api.Result{}, ctx.Err()
		}
		if !failoverable(err) {
			return api.Result{}, err
		}
		lastErr = err
	}
	return api.Result{}, fmt.Errorf("dispatch: sub-job failed on %d backend(s): %w", len(tried), lastErr)
}

// readStored reads the sub-job's stored result from the first two up
// members of its placement order, the owner and then its successor: one
// GET /v1/results/{key} each, under one storedReadTimeout. The successor
// holds what the owner lost: a hedge that overtook it (the owner's
// canceled attempt stores nothing), a failover, or a key a joiner took
// over. A body that passes check IS the answer: by the determinism
// contract it holds exactly the bytes a recomputation would produce.
// Misses (404), errors, timeouts and rejected bodies report false, and
// the caller submits. The read feeds no latency EWMA.
func (p *Pool) readStored(ctx context.Context, order []*member, kind, key string, check func(api.Result) error) (api.Result, bool) {
	rctx, cancel := context.WithTimeout(ctx, storedReadTimeout)
	defer cancel()
	reads := 0
	for _, m := range order {
		if reads == 2 || rctx.Err() != nil {
			break
		}
		if !m.up() {
			continue
		}
		reads++
		body, err := m.c.Result(rctx, key)
		if res := (api.Result{Kind: kind, Key: key, Body: body}); err == nil && check(res) == nil {
			mPeerFills.Inc()
			p.stats.peerFills.Add(1)
			return res, true
		}
	}
	return api.Result{}, false
}

// failoverable classifies a sub-job failure: transient failures are
// worth re-dispatching to another backend, deterministic ones would
// fail identically everywhere and are final.
func failoverable(err error) bool {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return apiErr.StatusCode >= 500
	}
	var jobErr *client.JobError
	if errors.As(err, &jobErr) {
		// A remotely canceled job (backend shutting down, operator
		// intervention, a hedge race settled by a sibling) recomputes
		// cleanly elsewhere; a failed job ran its deterministic task to an
		// error and would fail again.
		return jobErr.Status.State == api.JobCanceled
	}
	// Network errors, truncated responses, decode failures: transient.
	return true
}

// aggregator serializes progress events across sub-job watchers and
// keeps the summed counter monotone: each slot contributes the maximum
// Done it has ever reported, so a shard restarting on another backend
// (from zero) — or two hedged attempts racing through the same slot —
// never moves the total backwards.
type aggregator struct {
	onEvent func(api.Event)
	total   int64

	mu   sync.Mutex
	done map[int]int64
	sum  int64
}

func newAggregator(onEvent func(api.Event), total int64) *aggregator {
	return &aggregator{onEvent: onEvent, total: total, done: make(map[int]int64)}
}

// start emits the leading running event.
func (a *aggregator) start() {
	if a.onEvent == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.onEvent(api.Event{State: api.JobRunning, Done: 0, Total: a.total})
}

// observe folds one sub-job's running counter into the sum.
func (a *aggregator) observe(slot int, done int64) {
	if a.onEvent == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if done <= a.done[slot] {
		return
	}
	a.sum += done - a.done[slot]
	a.done[slot] = done
	a.onEvent(api.Event{State: api.JobRunning, Done: a.sum, Total: a.total})
}

// finish emits the trailing done event.
func (a *aggregator) finish() {
	if a.onEvent == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.onEvent(api.Event{State: api.JobDone, Done: a.sum, Total: a.total})
}
