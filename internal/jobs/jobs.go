// Package jobs is the asynchronous job engine of the serving layer: a
// bounded submission queue drained by a fixed pool of executors, with
// context-based cancellation, per-job progress counters, and coalescing
// of duplicate submissions.
//
// Coalescing is keyed by the result cache's content address
// (internal/cache.Key): because every job in this repo is a pure
// function of its normalized spec, two submissions with the same key
// would compute byte-identical results, so the engine attaches the
// second submission to the first's job instead of queueing it — whether
// that job is still queued, already running, or finished. The effect the
// HTTP API advertises: N clients asking for the same experiment cost one
// computation, and repeat queries are O(1) against the cache.
//
// A finished job costs only its status record: it drops its task and
// context when it finishes, and the engine remembers the last
// maxTerminalHistory finished jobs of any outcome. A submission whose
// done job has been forgotten is answered from the result store with a
// new done record, exactly as after a restart.
//
// Every submission gets, next to its job, the Result its answer
// carries: the stored bytes for a job already done, or the job's own
// slot, which the job's finish fills. A waiter thus holds its bytes
// from the moment its job ends, whatever a bounded store evicts later.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"faultroute/api"
	"faultroute/internal/cache"
)

// Sentinel errors of the engine.
var (
	// ErrQueueFull reports a Submit that found the bounded queue at
	// capacity; the caller should retry later (HTTP 503).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrClosed reports a Submit after Close.
	ErrClosed = errors.New("jobs: engine closed")
	// ErrFinished reports a Cancel of a job already in a terminal state
	// — nothing is left to cancel (HTTP 409).
	ErrFinished = errors.New("jobs: job already finished")
)

// State is a job's lifecycle position — the shared wire type of the
// serving API.
type State = api.JobState

// Job states. Queued and Running are transient; the other three are
// terminal.
const (
	StateQueued   = api.JobQueued
	StateRunning  = api.JobRunning
	StateDone     = api.JobDone
	StateFailed   = api.JobFailed
	StateCanceled = api.JobCanceled
)

// Task computes one job's result bytes. It must be a pure function of
// the spec its closure captures (the engine guarantees nothing about
// which executor runs it or when), honor ctx cancellation, and report
// forward progress through the supplied hook — the engine surfaces those
// counts as the job's progress. It is the api.Task contract; compiled
// api.Plan tasks plug straight in.
type Task = api.Task

// Job tracks one coalesced submission through the engine. All methods
// are safe for concurrent use.
type Job struct {
	id    string
	key   string
	total int64

	// The execution state: set for a submission that enqueues work, and
	// dropped by finish, so a terminal job keeps only its status. A record
	// born done from a store hit never has any. result is the slot its
	// waiters hold: finish fills it and drops the job's reference, so the
	// bytes live only as long as a waiter does.
	task   Task
	ctx    context.Context
	cancel context.CancelFunc
	result *Result

	done   atomic.Int64
	doneCh chan struct{}

	mu       sync.Mutex
	state    State
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
}

// ID returns the engine-assigned job identifier.
func (j *Job) ID() string { return j.id }

// Key returns the cache key the job's result is (or will be) stored
// under.
func (j *Job) Key() string { return j.key }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.doneCh }

// Wait blocks until the job reaches a terminal state or ctx is done,
// returning ctx's error in the latter case.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.doneCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Result carries a job's result bytes to the submissions that wait on
// it. Bytes is valid once the job is terminal, as seen by its Done
// channel or a Status: finish fills the slot before either says so.
type Result struct {
	data []byte
}

// Bytes returns the job's result bytes: nil unless the job is done.
func (r *Result) Bytes() []byte { return r.data }

// Status is a point-in-time snapshot of a job — the api.JobStatus wire
// type the HTTP layer serves verbatim.
type Status = api.JobStatus

// Status returns a snapshot of the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	state, errMsg := j.stateLocked()
	return Status{
		ID:       j.id,
		Key:      j.key,
		State:    state,
		Done:     j.done.Load(),
		Total:    j.total,
		Error:    errMsg,
		Created:  j.created,
		Started:  j.started,
		Finished: j.finished,
	}
}

// stateLocked returns the job's state and error message; j.mu must be
// held. A job canceled while still queued reports StateCanceled even
// though no executor has touched it yet. Only a queued job reads its
// context: a terminal one has dropped it.
func (j *Job) stateLocked() (State, string) {
	if j.state == StateQueued && j.ctx.Err() != nil {
		return StateCanceled, j.ctx.Err().Error()
	}
	return j.state, j.errMsg
}

// Engine owns the queue, the executor pool, and the job index.
type Engine struct {
	store cache.ResultStore

	baseCtx   context.Context
	stop      context.CancelFunc
	wg        sync.WaitGroup
	queue     chan *Job
	executors int
	busy      atomic.Int64

	mu        sync.Mutex
	closed    bool
	nextID    int
	byID      map[string]*Job
	inflight  map[string]*Job // queued or running, by cache key
	doneByKey map[string]*Job // succeeded and still in history, by cache key
	history   []*Job          // terminal jobs, a ring of at most maxTerminalHistory
	oldest    int             // history index of the oldest job once the ring is full
}

// NewEngine starts an engine with `executors` concurrent job executors
// (<= 0 selects 1; each job additionally fans its trials across the
// worker pool its Task configures) and a submission queue of the given
// depth (<= 0 selects 64). The store receives every successful result
// and is consulted on Submit, so a warm store — a disk tier recovered
// after a restart above all — short-circuits resubmissions even across
// engine restarts.
func NewEngine(store cache.ResultStore, executors, depth int) *Engine {
	if executors <= 0 {
		executors = 1
	}
	if depth <= 0 {
		depth = 64
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		store:     store,
		baseCtx:   ctx,
		stop:      cancel,
		queue:     make(chan *Job, depth),
		executors: executors,
		byID:      make(map[string]*Job),
		inflight:  make(map[string]*Job),
		doneByKey: make(map[string]*Job),
	}
	for i := 0; i < executors; i++ {
		e.wg.Add(1)
		go e.run()
	}
	return e
}

// Submit registers a job computing the result addressed by key and
// returns its (possibly pre-existing) Job, and the Result that carries
// the job's bytes to this submission: the bytes of the store read that
// found the job done, or else the job's own slot, filled when it
// finishes. fresh reports whether this call enqueued new work: false
// means the submission coalesced onto an in-flight or completed job, or
// onto a result already in the store, and nothing will be recomputed.
// total is the job's expected work-unit count for progress reporting
// (0 = unknown). Submit fails with ErrQueueFull when the queue is at
// capacity and with ErrClosed after Close.
func (e *Engine) Submit(key string, total int64, task Task) (job *Job, res *Result, fresh bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, nil, false, ErrClosed
	}
	if j, ok := e.inflight[key]; ok {
		return j, j.result, false, nil
	}
	if data, ok := e.store.Get(key); ok {
		if j, ok := e.doneByKey[key]; ok {
			return j, &Result{data: data}, false, nil
		}
		// Result present but no job remembers computing it (a store warmed
		// before this engine started, or a done job the history has
		// forgotten): synthesize a done job so the API has something to
		// point at. It has nothing to run, so it gets no context.
		j := e.newJobLocked(key, total)
		j.state = StateDone
		j.done.Store(total)
		j.finished = j.created
		close(j.doneCh)
		e.doneByKey[key] = j
		e.retireLocked(j)
		return j, &Result{data: data}, false, nil
	}
	// A done job whose bytes a bounded store has since evicted is a
	// dangling record: drop it and recompute. Determinism makes the
	// recomputation byte-identical to what was evicted.
	delete(e.doneByKey, key)
	j := e.newJobLocked(key, total)
	j.ctx, j.cancel = context.WithCancel(e.baseCtx)
	j.task = task
	j.result = &Result{}
	select {
	case e.queue <- j:
	default:
		j.cancel()
		delete(e.byID, j.id)
		return nil, nil, false, fmt.Errorf("%w (depth %d)", ErrQueueFull, cap(e.queue))
	}
	e.inflight[key] = j
	return j, j.result, true, nil
}

// newJobLocked allocates and indexes a queued job with no execution
// state; e.mu must be held.
func (e *Engine) newJobLocked(key string, total int64) *Job {
	e.nextID++
	j := &Job{
		id:      fmt.Sprintf("j%d", e.nextID),
		key:     key,
		total:   total,
		doneCh:  make(chan struct{}),
		state:   StateQueued,
		created: time.Now(),
	}
	e.byID[j.id] = j
	return j
}

// QueueLen returns the number of jobs waiting in the submission queue
// (live, for metrics).
func (e *Engine) QueueLen() int { return len(e.queue) }

// QueueCap returns the submission queue's capacity.
func (e *Engine) QueueCap() int { return cap(e.queue) }

// Executors returns the size of the executor pool.
func (e *Engine) Executors() int { return e.executors }

// Busy returns the number of executors currently running a job (live,
// for metrics; Busy/Executors is the pool's utilization).
func (e *Engine) Busy() int64 { return e.busy.Load() }

// Get returns the job with the given ID.
func (e *Engine) Get(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.byID[id]
	return j, ok
}

// Cancel cancels the job with the given ID: a queued job will be
// discarded when dequeued, a running job has its context canceled.
// Canceling a job already in a terminal state — done, failed, canceled,
// or queued with its context already canceled — fails with ErrFinished:
// there is nothing left to stop, and the HTTP layer surfaces that as a
// 409 rather than pretending the DELETE did work. A job canceled while
// still queued releases its coalescing slot immediately, so a
// resubmission of the same spec is fresh work rather than a hit on the
// dead job.
func (e *Engine) Cancel(id string) error {
	e.mu.Lock()
	j, ok := e.byID[id]
	if !ok {
		e.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	j.mu.Lock()
	state, _ := j.stateLocked()
	j.mu.Unlock()
	if state.Terminal() {
		e.mu.Unlock()
		return fmt.Errorf("%w: %q is already %s", ErrFinished, id, state)
	}
	if state == StateQueued && e.inflight[j.key] == j {
		delete(e.inflight, j.key)
	}
	// Cancel before releasing e.mu: finish() serializes on e.mu too, so
	// the job cannot reach a terminal state between the check above and
	// this cancel — a nil return always means the DELETE acted on a live
	// job. (If the task had already computed its result, finish() will
	// still record it as done: cancellation raced completion and
	// completion won, which the caller observes in the job's status.)
	j.cancel()
	e.mu.Unlock()
	return nil
}

// Close stops accepting submissions, cancels every job context, waits
// for the executors to drain, and fails any jobs still stuck in the
// queue so their waiters unblock.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.stop()
	e.wg.Wait()
	for {
		select {
		case j := <-e.queue:
			e.finish(j, nil, context.Canceled)
		default:
			return
		}
	}
}

// run is one executor: it drains the queue until the engine stops.
func (e *Engine) run() {
	defer e.wg.Done()
	for {
		select {
		case <-e.baseCtx.Done():
			return
		case j := <-e.queue:
			e.execute(j)
		}
	}
}

// execute drives one job from queued to a terminal state.
func (e *Engine) execute(j *Job) {
	e.busy.Add(1)
	defer e.busy.Add(-1)
	if err := j.ctx.Err(); err != nil {
		e.finish(j, nil, err)
		return
	}
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	data, err := runTask(j)
	e.finish(j, data, err)
}

// runTask runs the job's task. A task that panics fails its job with
// an error naming the panic, instead of ending the process: the
// executor lives on to run the next queued job.
func runTask(j *Job) (data []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			data, err = nil, fmt.Errorf("jobs: task panicked: %v", p)
		}
	}()
	return j.task(j.ctx, func(delta int) { j.done.Add(int64(delta)) })
}

// maxTerminalHistory bounds how many terminal jobs — done, failed or
// canceled — stay queryable by ID. Once the history is full, the oldest
// leaves the index and its ID answers ErrNotFound. Without the bound a
// long-running daemon would keep a record for every job it ever ran.
// Forgetting a done job loses nothing: its bytes stay in the result
// store under that store's own budget, and a later submission of its
// key is answered from there with a new done record (or recomputed,
// byte-identically, if the store has evicted them too).
const maxTerminalHistory = 1024

// finish records a job's terminal state, hands a successful result to
// the job's waiters through its slot and publishes it to the store, and
// releases the submission's coalescing slot. A failed or canceled job
// leaves no trace under its key, so the same spec can be resubmitted
// and retried from scratch. The job then drops its execution state and
// its result slot, so the compiled task, whatever its closure captured
// and the bytes are freed once no waiter holds them, and joins the
// bounded history.
func (e *Engine) finish(j *Job, data []byte, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	// Guarded delete: Cancel may have already freed the slot and a new
	// job for the same key may be in flight — never evict the newcomer.
	if e.inflight[j.key] == j {
		delete(e.inflight, j.key)
	}
	j.mu.Lock()
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = StateDone
		j.result.data = data
		e.store.Put(j.key, data)
		e.doneByKey[j.key] = j
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = StateCanceled
		j.errMsg = err.Error()
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
	}
	j.cancel() // release the context's resources
	j.task, j.ctx, j.cancel, j.result = nil, nil, nil, nil
	j.mu.Unlock()
	e.retireLocked(j)
	close(j.doneCh)
}

// retireLocked adds a terminal job to the history; e.mu must be held.
// When the history is full it forgets the oldest job: the job leaves
// byID and, if it is still its key's done record, doneByKey.
func (e *Engine) retireLocked(j *Job) {
	if len(e.history) < maxTerminalHistory {
		e.history = append(e.history, j)
		return
	}
	old := e.history[e.oldest]
	delete(e.byID, old.id)
	if e.doneByKey[old.key] == old {
		delete(e.doneByKey, old.key)
	}
	e.history[e.oldest] = j
	e.oldest = (e.oldest + 1) % maxTerminalHistory
}
