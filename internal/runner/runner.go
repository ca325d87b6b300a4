// Package runner is the parallel trial engine: a deterministic sharded
// worker pool that the Monte-Carlo layers (core.EstimateCtx, the exp
// harness, the percolation sweeps) fan their independent trials across.
//
// Every unit of work is identified by a dense index i in [0, n); the
// caller derives that unit's randomness from (base seed, i) by rng
// stream-splitting, never from scheduling. The pool therefore only
// changes WHEN a shard runs, not WHAT it computes, and results are
// always merged back in index order — output is bit-identical for any
// worker count, including the inline sequential path used when a single
// worker is requested. That guarantee is what lets every CLI default
// -workers to runtime.GOMAXPROCS(0) without perturbing a single table.
//
// Each MapCtx call starts its workers and waits for the slowest one, so
// a caller with many small groups of work flattens them into one index
// space and makes one call: core.EstimateBatchCtx maps (request, trial)
// pairs, and every experiment table maps its whole sweep of (cell,
// trial) pairs. Workers then pass from one group into the next instead
// of meeting at a barrier after each. Beyond its output, a map
// allocates the same few objects whatever n is: the workers' shared
// state, which holds a single error slot, and one closure per worker.
//
// The package is intentionally dependency-free so that any layer (core,
// percolation, exp) can use it without import cycles. Per-worker trial
// scratch is NOT threaded through the pool for the same reason: the
// trial layers draw their arena-backed buffers from internal/arena's
// sync.Pool, whose per-P caching gives each worker goroutine a warm
// arena across its shards without the scheduler knowing anything about
// trial state.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Progress observes completed work: the pool invokes it once per
// finished shard with the number of newly completed shards (currently
// always 1). Implementations must be safe for concurrent calls when the
// pool runs more than one worker — an atomic counter is the intended
// shape — and must never influence what the shards compute: progress is
// observability, not scheduling, so results stay bit-identical whether
// or not a hook is installed.
type Progress func(delta int)

// DefaultWorkers returns the worker count used when a caller asks for
// "all cores": runtime.GOMAXPROCS(0).
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Pool is a worker-pool executor. The zero value is not meaningful;
// construct with New. A Pool is stateless between calls and safe for
// concurrent use; it spawns goroutines per call rather than keeping
// long-lived workers, so an idle Pool costs nothing.
type Pool struct {
	workers int
}

// New returns a pool that runs up to workers shards concurrently.
// workers <= 0 selects DefaultWorkers().
func New(workers int) *Pool {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// MapCtx executes fn(i) for every i in [0, n) across the pool and
// returns the results in index order.
//
// Determinism contract: fn must derive all randomness from i (and
// captured immutable state), never from scheduling. Under that
// contract MapCtx's result is independent of the worker count.
//
// Error contract: if any fn call fails, MapCtx returns the error of the
// lowest failing index — exactly the error a sequential loop would
// have stopped on. Shards are claimed in ascending index order, so
// every index below the lowest failing one is guaranteed to have run;
// indices above it may be skipped once a failure is observed. A call
// that panics fails its index with an error naming the panic, so a
// panic never ends the process and obeys the same contract.
//
// Cancellation contract: workers stop claiming shards once ctx is done
// and MapCtx returns ctx.Err() — unless some shard had already failed,
// in which case the lowest-index shard error wins as above. A context
// whose deadline has passed by the clock counts as done, and MapCtx
// returns context.DeadlineExceeded, even before the runtime fires the
// deadline's timer: CPU-bound workers can otherwise finish a whole run
// past its deadline. A nil ctx means context.Background(); a nil
// progress installs no hook. Cancellation only ever truncates a run, it
// never alters what any completed shard computed, so a run that
// finishes without tripping the context is bit-identical to an
// uncancellable one.
func MapCtx[T any](ctx context.Context, p *Pool, n int, progress Progress, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	deadline, timed := ctx.Deadline()
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return mapSeq(ctx, deadline, timed, n, progress, fn)
	}
	out := make([]T, n)
	// The workers share a claim counter, a failure flag and one error
	// slot, not one per index: only the lowest failing index can be
	// reported, so a failure keeps its error only if no lower index has
	// failed. The slot's lock is taken on failure alone. One struct
	// keeps the shared state to one allocation.
	done := ctx.Done()
	var sh struct {
		wg       sync.WaitGroup
		next     atomic.Int64
		failed   atomic.Bool
		errMu    sync.Mutex
		errIndex int
		err      error
	}
	sh.errIndex = n
	for w := 0; w < workers; w++ {
		sh.wg.Add(1)
		go func() {
			defer sh.wg.Done()
			fail := func(i int, err error) {
				sh.errMu.Lock()
				if i < sh.errIndex {
					sh.errIndex, sh.err = i, err
				}
				sh.errMu.Unlock()
				sh.failed.Store(true)
			}
			// One recover for the whole worker: a panic ends the worker
			// the way an error does, failing the index it was running.
			i := -1
			defer func() {
				if p := recover(); p != nil {
					fail(i, panicError(i, p))
				}
			}()
			for {
				// Every check precedes the claim: a claimed index always
				// runs, so every index below a failing one has run.
				select {
				case <-done:
					return
				default:
				}
				if expired(deadline, timed) || sh.failed.Load() {
					return
				}
				i = int(sh.next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := fn(i)
				if err != nil {
					fail(i, err)
					return
				}
				out[i] = v
				if progress != nil {
					progress(1)
				}
			}
		}()
	}
	sh.wg.Wait()
	if sh.err != nil {
		return nil, sh.err
	}
	if err := ctxErr(ctx, deadline, timed); err != nil {
		return nil, err
	}
	return out, nil
}

// mapSeq is MapCtx's sequential path: a plain loop, stopping at the
// first error, panic or cancellation.
func mapSeq[T any](ctx context.Context, deadline time.Time, timed bool, n int, progress Progress, fn func(i int) (T, error)) (out []T, err error) {
	i := 0
	defer func() {
		if p := recover(); p != nil {
			out, err = nil, panicError(i, p)
		}
	}()
	out = make([]T, n)
	for ; i < n; i++ {
		if err := ctxErr(ctx, deadline, timed); err != nil {
			return nil, err
		}
		v, err := fn(i)
		if err != nil {
			return nil, err
		}
		out[i] = v
		if progress != nil {
			progress(1)
		}
	}
	return out, nil
}

// panicError is the error of index i whose call panicked with p.
func panicError(i int, p any) error {
	return fmt.Errorf("runner: index %d panicked: %v", i, p)
}

// expired reports whether a context's deadline, as ctx.Deadline returns
// it, has passed by the clock.
func expired(deadline time.Time, timed bool) bool {
	return timed && !time.Now().Before(deadline)
}

// ctxErr is ctx.Err(), except that a deadline passed by the clock is
// context.DeadlineExceeded before its timer has fired.
func ctxErr(ctx context.Context, deadline time.Time, timed bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if expired(deadline, timed) {
		return context.DeadlineExceeded
	}
	return nil
}
