package dispatch

// The hedger layer: speculative re-dispatch of straggler sub-jobs.
// When an attempt outlives its expected duration, the same sub-job is
// launched on the owner's successor (the next untried backend in its
// placement order) and the two race; the first completed result wins
// and the loser is canceled on its backend (DELETE /v1/jobs/{id}).
// Hedging is free to verify and free of risk by the determinism
// contract — both attempts are the same pure function, so whichever
// finishes first IS the answer, byte for byte — and cheap by content
// addressing: the duplicate submission coalesces with nothing (each
// attempt runs on a different backend) but its cancellation releases
// the loser's executor mid-trial. A winning hedge leaves the result at
// the successor, which is where the stored read looks after a miss at
// the owner, so a repeat of the key is still answered without a submit.

import (
	"context"
	"sync/atomic"
	"time"

	"faultroute/api"
)

// hedger decides when a running attempt is a straggler.
type hedger struct {
	enabled bool
	floor   time.Duration // never hedge earlier than this
	factor  float64       // hedge when elapsed exceeds factor × expected duration
}

// delay returns how long to wait before hedging an attempt whose
// expected duration is `expected` (0 = unknown: wait the floor). The
// floor absorbs queueing jitter; the factor makes the trigger relative,
// so big shards are not hedged for merely being big.
func (h hedger) delay(expected time.Duration) time.Duration {
	d := time.Duration(h.factor * float64(expected))
	if d < h.floor {
		d = h.floor
	}
	return d
}

// requestTrials returns the work size of a sub-job for latency
// accounting: the shard's trial count for shard sub-jobs, the full
// schedule for whole estimates, 0 for kinds whose duration says
// nothing about per-trial speed.
func requestTrials(req api.Request) int {
	if req.Kind != api.KindEstimate || req.Estimate == nil {
		return 0
	}
	if req.Estimate.Shard != nil {
		return req.Estimate.Shard.Count
	}
	return req.Estimate.Trials
}

// expectedDuration predicts how long req should take from the
// fleet-median per-trial EWMA (0 when either is unknown), not from the
// primary's own: placement ignores capacity on purpose, so a
// persistently slow owner keeps its keys, and only a hedge timed
// against the fleet lets faster backends overtake its shards.
func expectedDuration(members []*member, req api.Request) time.Duration {
	trials := requestTrials(req)
	if trials <= 0 {
		return 0
	}
	return fleetMedianEWMA(members) * time.Duration(trials)
}

// attempt is one in-flight execution of a sub-job on one member: its
// cancel handle and, once submitted, the remote job ID the loser is
// canceled by.
type attempt struct {
	m      *member
	cancel context.CancelFunc
	jobID  atomic.Pointer[string]
}

// outcome is what an attempt goroutine reports back.
type outcome struct {
	at      *attempt
	res     api.Result
	err     error
	elapsed time.Duration
}

// runAttempt executes one sub-job on `primary`, hedging onto a second
// backend if the attempt outlives its expected duration. It returns
// the first result that passes check (a body check rejects fails its
// attempt like a transient error), or — once every launched attempt has
// failed — the first failure's error. Transiently failing members are
// marked down here so the caller's failover loop and the next sub-job's
// placement see one coherent health view. tried is extended with every
// member an attempt actually ran on.
func (p *Pool) runAttempt(ctx context.Context, primary *member, req api.Request, slot int, agg *aggregator, check func(api.Result) error, order []*member, tried map[*member]bool) (api.Result, error) {
	ch := make(chan outcome, 2)
	launch := func(m *member) *attempt {
		actx, cancel := context.WithCancel(ctx)
		at := &attempt{m: m, cancel: cancel}
		go p.watchOn(actx, at, req, slot, agg, ch)
		return at
	}
	attempts := []*attempt{launch(primary)}
	defer func() {
		for _, at := range attempts {
			at.cancel()
		}
	}()

	var hedgeCh <-chan time.Time
	if p.hedge.enabled && len(order) > 1 {
		timer := time.NewTimer(p.hedge.delay(expectedDuration(order, req)))
		defer timer.Stop()
		hedgeCh = timer.C
	}

	var firstErr error
	for outstanding := 1; outstanding > 0; {
		select {
		case <-ctx.Done():
			return api.Result{}, ctx.Err()
		case <-hedgeCh:
			hedgeCh = nil // one hedge per attempt: doubling work, not flooding it
			h := pickHedge(order, tried, primary)
			if h == nil {
				continue
			}
			tried[h] = true
			mHedges.Inc()
			p.stats.hedges.Add(1)
			attempts = append(attempts, launch(h))
			outstanding++
		case out := <-ch:
			outstanding--
			if out.err == nil {
				out.err = check(out.res)
			}
			if out.err == nil {
				if out.at.m != primary {
					mHedgeWins.Inc()
					p.stats.hedgeWins.Add(1)
				}
				p.observeSuccess(out.at.m, req, out.elapsed)
				p.cancelLosers(attempts, out.at)
				return out.res, nil
			}
			if ctx.Err() != nil {
				return api.Result{}, ctx.Err()
			}
			if !failoverable(out.err) {
				return api.Result{}, out.err // deterministic: fails identically everywhere
			}
			out.at.m.markDown(p.cooldown)
			if firstErr == nil {
				firstErr = out.err
			}
			// A hedge may still be running; wait it out — it is racing the
			// same pure function and may yet deliver the bytes.
		}
	}
	return api.Result{}, firstErr
}

// watchOn runs one attempt on one member: submit (capturing the job ID
// so a losing attempt can be canceled remotely), then watch to
// completion, feeding progress into the aggregator. The aggregator's
// per-slot max semantics make two concurrent watchers of one slot
// safe: the sum only ever reflects the farthest-along attempt.
func (p *Pool) watchOn(ctx context.Context, at *attempt, req api.Request, slot int, agg *aggregator, ch chan<- outcome) {
	m := at.m
	mSubJobs.Inc()
	p.stats.subJobs.Add(1)
	start := time.Now()
	sub, err := m.c.Submit(ctx, req)
	if err != nil {
		ch <- outcome{at: at, err: err}
		return
	}
	if id := sub.Job.ID; id != "" {
		at.jobID.Store(&id)
	}
	// Watch resubmits the request: by content address it coalesces onto
	// the job just submitted (or its cached result), so the extra POST is
	// a memoized no-op, not duplicate work.
	res, err := m.c.Watch(ctx, req, func(ev api.Event) {
		agg.observe(slot, ev.Done)
	})
	ch <- outcome{at: at, res: res, err: err, elapsed: time.Since(start)}
}

// cancelLosers cancels every attempt except the winner: the local
// watcher dies with its context, and the remote job is canceled
// best-effort in the background (DELETE /v1/jobs/{id}) so the losing
// backend's executor stops burning trials nobody will read. A loser
// that finished in the meantime answers the DELETE with 409, which is
// not counted — nothing was reclaimed.
func (p *Pool) cancelLosers(attempts []*attempt, winner *attempt) {
	for _, at := range attempts {
		if at == winner {
			continue
		}
		at.cancel()
		id := at.jobID.Load()
		if id == nil {
			continue
		}
		go func(at *attempt, id string) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if _, err := at.m.c.Cancel(ctx, id); err == nil {
				mHedgeCancels.Inc()
				p.stats.hedgeCancels.Add(1)
			}
		}(at, *id)
	}
}

// pickHedge selects the backend for a speculative duplicate: the
// primary's successor, the first member in the sub-job's placement
// order that is up, untried for this sub-job and not the primary. A
// winning hedge stores its result there, and that is the second member
// the stored read asks (see readStored); a hedge onto the idlest
// backend instead would strand the result where no read looks. Returns
// nil when no such backend exists.
func pickHedge(order []*member, tried map[*member]bool, primary *member) *member {
	for _, m := range order {
		if m != primary && !tried[m] && m.up() {
			return m
		}
	}
	return nil
}

// observeSuccess feeds one successful sub-job back into the adaptive
// layers: the member's per-trial EWMA (the fleet median that times
// hedges) and the planner's fleet-wide estimate (next job's shard size).
func (p *Pool) observeSuccess(m *member, req api.Request, elapsed time.Duration) {
	trials := requestTrials(req)
	if trials <= 0 || elapsed <= 0 {
		return
	}
	m.observe(elapsed / time.Duration(trials))
	p.planner.observe(trials, elapsed)
}
