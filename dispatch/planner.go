package dispatch

// The planner layer: how an estimate's trial schedule splits into
// shard sub-jobs. Shard layout never affects result bytes (MergeShards
// folds rows in trial order), so the planner is free to chase pure
// throughput: the adaptive planner feeds observed per-trial completion
// latency back into the shard size between jobs, aiming every shard at
// a fixed wall-time target so re-dispatch and hedging operate on
// pieces small enough to be worth stealing.

import (
	"sync"
	"time"

	"faultroute/api"
)

// planner sizes an estimate's trial shards and absorbs completion
// feedback. Implementations are safe for concurrent use.
type planner interface {
	// shardSize returns the trial count per shard for a job of `trials`
	// trials over `members` backends (>= 1; a size >= trials means
	// "dispatch whole").
	shardSize(trials, members int) int
	// observe feeds one completed sub-job back: `trials` trials finished
	// in `elapsed` wall time on some backend.
	observe(trials int, elapsed time.Duration)
}

// fixedPlanner always returns the configured size — the WithShardTrials
// contract, kept for reproducible layouts (tests, benchmarks, stored
// reads across runs).
type fixedPlanner struct{ size int }

func (p fixedPlanner) shardSize(trials, members int) int { return p.size }
func (p fixedPlanner) observe(int, time.Duration)        {}

// heuristicShardSize is the cold-start split: about four shards per
// backend, so a slow backend's share can be overtaken by the others
// without drowning in per-job overhead.
func heuristicShardSize(trials, members int) int {
	return (trials + 4*members - 1) / (4 * members)
}

// adaptivePlanner sizes shards from the fleet-wide per-trial latency
// EWMA so each shard lands near the target wall time. Until the first
// observation it falls back to the cold-start heuristic. Two clamps
// keep the layout sane at the extremes: at least two shards per
// backend (spreading is what makes stragglers overtakable — one giant
// shard per backend cannot be hedged usefully), and at most eight
// shards per backend (per-job overhead must not eat the win on very
// slow trials).
type adaptivePlanner struct {
	target time.Duration // intended per-shard wall time

	mu       sync.Mutex
	perTrial time.Duration // fleet EWMA of per-trial completion latency
}

func (p *adaptivePlanner) shardSize(trials, members int) int {
	p.mu.Lock()
	per := p.perTrial
	p.mu.Unlock()
	if per <= 0 {
		return heuristicShardSize(trials, members)
	}
	size := int(p.target / per)
	if maxSize := (trials + 2*members - 1) / (2 * members); size > maxSize {
		size = maxSize
	}
	if minSize := (trials + 8*members - 1) / (8 * members); size < minSize {
		size = minSize
	}
	if size < 1 {
		size = 1
	}
	return size
}

func (p *adaptivePlanner) observe(trials int, elapsed time.Duration) {
	if trials <= 0 || elapsed <= 0 {
		return
	}
	per := elapsed / time.Duration(trials)
	p.mu.Lock()
	if p.perTrial == 0 {
		p.perTrial = per
	} else {
		p.perTrial += time.Duration(ewmaAlpha * float64(per-p.perTrial))
	}
	p.mu.Unlock()
}

// shardRanges splits the request's trial schedule using the planner,
// returning nil when the request dispatches whole (non-estimates,
// sub-jobs already carrying a shard, and schedules too small to be
// worth splitting).
func shardRanges(pl planner, norm api.Request, members int) []api.ShardSpec {
	if norm.Kind != api.KindEstimate || norm.Estimate == nil || norm.Estimate.Shard != nil {
		return nil
	}
	if members < 1 {
		members = 1
	}
	trials := norm.Estimate.Trials
	size := pl.shardSize(trials, members)
	if size <= 0 {
		size = heuristicShardSize(trials, members)
	}
	if size < 1 {
		size = 1
	}
	if size >= trials {
		return nil
	}
	ranges := make([]api.ShardSpec, 0, (trials+size-1)/size)
	for off := 0; off < trials; off += size {
		n := size
		if off+n > trials {
			n = trials - off
		}
		ranges = append(ranges, api.ShardSpec{Offset: off, Count: n})
	}
	return ranges
}
