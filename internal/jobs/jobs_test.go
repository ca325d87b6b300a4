package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faultroute/internal/cache"
)

// waitState polls until the job reaches a terminal state, with a test
// deadline.
func waitJob(t *testing.T, j *Job) Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("job %s did not finish: %v (state %s)", j.ID(), err, j.Status().State)
	}
	return j.Status()
}

func TestSubmitRunStoreResult(t *testing.T) {
	store := cache.NewStore()
	e := NewEngine(store, 2, 8)
	defer e.Close()

	j, _, fresh, err := e.Submit("key-a", 3, func(ctx context.Context, progress func(int)) ([]byte, error) {
		for i := 0; i < 3; i++ {
			progress(1)
		}
		return []byte("result-a"), nil
	})
	if err != nil || !fresh {
		t.Fatalf("Submit = (fresh=%v, err=%v), want fresh new job", fresh, err)
	}
	st := waitJob(t, j)
	if st.State != StateDone || st.Done != 3 || st.Total != 3 {
		t.Fatalf("status = %+v, want done 3/3", st)
	}
	data, ok := store.Get("key-a")
	if !ok || string(data) != "result-a" {
		t.Fatalf("store holds %q, %v", data, ok)
	}
	if _, ok := e.Get(j.ID()); !ok {
		t.Fatal("finished job not retrievable by ID")
	}
}

func TestDuplicateSubmissionsCoalesce(t *testing.T) {
	store := cache.NewStore()
	e := NewEngine(store, 1, 8)
	defer e.Close()

	var runs atomic.Int64
	release := make(chan struct{})
	task := func(ctx context.Context, progress func(int)) ([]byte, error) {
		runs.Add(1)
		<-release
		return []byte("once"), nil
	}

	j1, _, fresh1, err := e.Submit("dup", 0, task)
	if err != nil || !fresh1 {
		t.Fatalf("first Submit = (%v, %v)", fresh1, err)
	}
	// While in flight (queued or running), the same key must coalesce.
	j2, _, fresh2, err := e.Submit("dup", 0, task)
	if err != nil || fresh2 {
		t.Fatalf("second Submit = (fresh=%v, err=%v), want coalesced", fresh2, err)
	}
	if j1 != j2 {
		t.Fatalf("coalesced submission got a different job: %s vs %s", j1.ID(), j2.ID())
	}
	close(release)
	waitJob(t, j1)
	// After completion, the same key must still coalesce — onto the done
	// job, with no recomputation.
	j3, _, fresh3, err := e.Submit("dup", 0, task)
	if err != nil || fresh3 {
		t.Fatalf("post-completion Submit = (fresh=%v, err=%v), want coalesced", fresh3, err)
	}
	if j3 != j1 {
		t.Fatalf("post-completion submission got job %s, want %s", j3.ID(), j1.ID())
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("task ran %d times, want 1", got)
	}
}

func TestConcurrentSameSpecSubmissionsRunOnce(t *testing.T) {
	// The race the cache+coalescing design must win: many clients submit
	// the same spec simultaneously; exactly one computation happens and
	// every submission observes the same result. Run under -race.
	store := cache.NewStore()
	e := NewEngine(store, 4, 64)
	defer e.Close()

	var runs atomic.Int64
	task := func(ctx context.Context, progress func(int)) ([]byte, error) {
		runs.Add(1)
		time.Sleep(10 * time.Millisecond) // widen the window
		return []byte("shared"), nil
	}

	const clients = 32
	var wg sync.WaitGroup
	jobsSeen := make([]*Job, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			j, _, _, err := e.Submit("same-spec", 0, task)
			if err != nil {
				t.Errorf("client %d: %v", c, err)
				return
			}
			jobsSeen[c] = j
		}(c)
	}
	wg.Wait()
	waitJob(t, jobsSeen[0])
	for c, j := range jobsSeen {
		if j != jobsSeen[0] {
			t.Fatalf("client %d attached to job %s, want %s", c, j.ID(), jobsSeen[0].ID())
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("task ran %d times for %d concurrent clients, want 1", got, clients)
	}
	if data, ok := store.Get("same-spec"); !ok || string(data) != "shared" {
		t.Fatalf("store holds %q, %v", data, ok)
	}
}

func TestCancelRunningJob(t *testing.T) {
	store := cache.NewStore()
	e := NewEngine(store, 1, 8)
	defer e.Close()

	started := make(chan struct{})
	j, _, _, err := e.Submit("cancel-me", 100, func(ctx context.Context, progress func(int)) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if err := e.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	if _, ok := store.Get("cancel-me"); ok {
		t.Fatal("canceled job published a result")
	}
	// The key is free again: a resubmission is fresh work, not a
	// coalesced hit on the canceled job.
	j2, _, fresh, err := e.Submit("cancel-me", 1, func(ctx context.Context, progress func(int)) ([]byte, error) {
		return []byte("second try"), nil
	})
	if err != nil || !fresh {
		t.Fatalf("resubmit after cancel = (fresh=%v, err=%v)", fresh, err)
	}
	if st := waitJob(t, j2); st.State != StateDone {
		t.Fatalf("retry state = %s, want done", st.State)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	store := cache.NewStore()
	e := NewEngine(store, 1, 8)
	defer e.Close()

	release := make(chan struct{})
	blocker, _, _, err := e.Submit("blocker", 0, func(ctx context.Context, progress func(int)) ([]byte, error) {
		<-release
		return []byte("b"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	queued, _, _, err := e.Submit("queued", 0, func(ctx context.Context, progress func(int)) ([]byte, error) {
		ran = true
		return []byte("q"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	// A canceled-but-still-queued job must already report canceled.
	if st := queued.Status(); st.State != StateCanceled {
		t.Fatalf("queued+canceled state = %s, want canceled", st.State)
	}
	close(release)
	waitJob(t, blocker)
	st := waitJob(t, queued)
	if st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	if ran {
		t.Fatal("canceled queued job still ran")
	}
}

func TestQueueFull(t *testing.T) {
	store := cache.NewStore()
	e := NewEngine(store, 1, 1)
	defer e.Close()

	release := make(chan struct{})
	defer close(release)
	block := func(ctx context.Context, progress func(int)) ([]byte, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return []byte("x"), nil
	}
	// First job occupies the executor, second fills the depth-1 queue.
	if _, _, _, err := e.Submit("q0", 0, block); err != nil {
		t.Fatal(err)
	}
	// The executor may not have dequeued q0 yet; allow one retry for q1.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, _, err := e.Submit("q1", 0, block); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("q1 never fit in the queue: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	// Now the queue is full (executor busy with q0, q1 waiting): a third
	// distinct spec must be rejected, not block the server.
	_, _, _, err := e.Submit("q2", 0, block)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	// But a duplicate of an in-flight job still coalesces fine.
	if _, _, fresh, err := e.Submit("q1", 0, block); err != nil || fresh {
		t.Fatalf("duplicate during full queue = (fresh=%v, err=%v), want coalesced", fresh, err)
	}
}

func TestFailedJobAllowsRetry(t *testing.T) {
	store := cache.NewStore()
	e := NewEngine(store, 1, 8)
	defer e.Close()

	boom := errors.New("boom")
	j, _, _, err := e.Submit("flaky", 0, func(ctx context.Context, progress func(int)) ([]byte, error) {
		return nil, fmt.Errorf("attempt 1: %w", boom)
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != StateFailed || st.Error == "" {
		t.Fatalf("status = %+v, want failed with message", st)
	}
	j2, _, fresh, err := e.Submit("flaky", 0, func(ctx context.Context, progress func(int)) ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil || !fresh {
		t.Fatalf("retry = (fresh=%v, err=%v), want fresh", fresh, err)
	}
	if st := waitJob(t, j2); st.State != StateDone {
		t.Fatalf("retry state = %s", st.State)
	}
}

func TestPanickingTaskFailsItsJobOnly(t *testing.T) {
	// One executor: the job queued behind the panicking one runs only if
	// the executor survived the panic.
	store := cache.NewStore()
	e := NewEngine(store, 1, 8)
	defer e.Close()

	release := make(chan struct{})
	bad, _, _, err := e.Submit("bad", 0, func(ctx context.Context, progress func(int)) ([]byte, error) {
		<-release
		panic("corrupt plan")
	})
	if err != nil {
		t.Fatal(err)
	}
	next, _, _, err := e.Submit("next", 0, func(ctx context.Context, progress func(int)) ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	if st := waitJob(t, bad); st.State != StateFailed || st.Error != "jobs: task panicked: corrupt plan" {
		t.Fatalf("panicking job status = %+v, want failed with the panic's message", st)
	}
	if st := waitJob(t, next); st.State != StateDone {
		t.Fatalf("job queued behind the panic: state %s, want done", st.State)
	}
	if store.Has("bad") {
		t.Fatal("the panicking job stored a result")
	}
}

func TestWarmStoreShortCircuits(t *testing.T) {
	store := cache.NewStore()
	store.Put("warm", []byte("precomputed"))
	e := NewEngine(store, 1, 8)
	defer e.Close()

	j, res, fresh, err := e.Submit("warm", 5, func(ctx context.Context, progress func(int)) ([]byte, error) {
		t.Error("task ran despite warm cache")
		return nil, nil
	})
	if err != nil || fresh {
		t.Fatalf("Submit = (fresh=%v, err=%v), want coalesced onto warm result", fresh, err)
	}
	if got := string(res.Bytes()); got != "precomputed" {
		t.Fatalf("store-hit submission carries %q, want the stored bytes", got)
	}
	st := waitJob(t, j)
	if st.State != StateDone || st.Done != 5 {
		t.Fatalf("status = %+v, want synthetic done job", st)
	}
	// The synthetic record has nothing to run, so it never gets a
	// context: one derived from the engine's would stay registered on
	// it until Close.
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.task != nil || j.ctx != nil || j.cancel != nil {
		t.Fatalf("store-hit job %s holds task %v, context %v, cancel func %v",
			j.ID(), j.task != nil, j.ctx != nil, j.cancel != nil)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	e := NewEngine(cache.NewStore(), 1, 8)
	e.Close()
	if _, _, _, err := e.Submit("late", 0, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := e.Cancel("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Cancel err = %v, want ErrNotFound", err)
	}
}

func TestCancelQueuedJobFreesKeyImmediately(t *testing.T) {
	store := cache.NewStore()
	e := NewEngine(store, 1, 8)
	defer e.Close()

	release := make(chan struct{})
	defer close(release)
	blocker, _, _, err := e.Submit("blocker2", 0, func(ctx context.Context, progress func(int)) ([]byte, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return []byte("b"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = blocker
	queued, _, _, err := e.Submit("contended", 0, func(ctx context.Context, progress func(int)) ([]byte, error) {
		return []byte("first"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	// The canceled job must release its key at Cancel time — NOT when an
	// executor eventually dequeues it — so a resubmission is fresh work.
	retry, _, fresh, err := e.Submit("contended", 0, func(ctx context.Context, progress func(int)) ([]byte, error) {
		return []byte("second"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fresh {
		t.Fatalf("resubmission coalesced onto the canceled queued job %s", retry.ID())
	}
	if retry == queued {
		t.Fatal("resubmission returned the canceled job")
	}
}

func TestCloseUnblocksQueuedWaiters(t *testing.T) {
	store := cache.NewStore()
	e := NewEngine(store, 1, 8)

	started := make(chan struct{})
	if _, _, _, err := e.Submit("close-blocker", 0, func(ctx context.Context, progress func(int)) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	stuck, _, _, err := e.Submit("close-stuck", 0, func(ctx context.Context, progress func(int)) ([]byte, error) {
		return []byte("never runs"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	// Close must terminate queued jobs so waiters do not hang forever.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := stuck.Wait(ctx); err != nil {
		t.Fatalf("queued job still unfinished after Close: %v", err)
	}
	if st := stuck.Status(); st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
}

// checkIndex checks the engine's job index under its lock: byID holds
// at most maxTerminalHistory terminal jobs besides the live ones, and
// doneByKey names no job that byID has dropped.
func checkIndex(t *testing.T, e *Engine) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	live := 0
	for _, j := range e.byID {
		j.mu.Lock()
		if !j.state.Terminal() {
			live++
		}
		j.mu.Unlock()
	}
	if len(e.byID) > maxTerminalHistory+live {
		t.Fatalf("byID holds %d jobs, want <= %d terminal + %d live", len(e.byID), maxTerminalHistory, live)
	}
	for key, j := range e.doneByKey {
		if e.byID[j.id] != j {
			t.Fatalf("doneByKey[%q] names job %s, which byID has dropped", key, j.id)
		}
	}
}

// TestDeadJobHistoryBounded pins the one bounded history of terminal
// jobs: failed, done and store-hit records all leave the index once
// maxTerminalHistory later jobs have finished, while a live job stays.
func TestDeadJobHistoryBounded(t *testing.T) {
	store := cache.NewStore()
	e := NewEngine(store, 2, 8)
	defer e.Close()

	release := make(chan struct{})
	defer close(release)
	live, _, _, err := e.Submit("live", 0, func(ctx context.Context, progress func(int)) ([]byte, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return []byte("live"), nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var firstID string
	for i := 0; i < maxTerminalHistory+10; i++ {
		j, _, _, err := e.Submit(fmt.Sprintf("fail-%d", i), 0, func(ctx context.Context, progress func(int)) ([]byte, error) {
			return nil, errors.New("always fails")
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			firstID = j.ID()
		}
		waitJob(t, j)
	}
	if _, ok := e.Get(firstID); ok {
		t.Fatalf("oldest failed job %s still indexed after %d failures", firstID, maxTerminalHistory+10)
	}
	checkIndex(t, e)

	// Done jobs share the history: after 3 × maxTerminalHistory of them
	// the first is forgotten, by ID and by key.
	var firstDone *Job
	for i := 0; i < 3*maxTerminalHistory; i++ {
		key := fmt.Sprintf("done-%d", i)
		j, _, _, err := e.Submit(key, 1, func(ctx context.Context, progress func(int)) ([]byte, error) {
			return []byte("bytes of " + key), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			firstDone = j
		}
		waitJob(t, j)
		if i%maxTerminalHistory == 0 {
			checkIndex(t, e)
		}
	}
	checkIndex(t, e)
	if _, ok := e.Get(firstDone.ID()); ok {
		t.Fatalf("oldest done job %s still indexed after %d later jobs finished", firstDone.ID(), 3*maxTerminalHistory)
	}
	if _, ok := e.Get(live.ID()); !ok {
		t.Fatalf("live job %s left the index", live.ID())
	}

	// A forgotten done job's key is answered from the store with a new
	// done record, and store-hit records join the same history. Four
	// submitters run at once, so records are retired and forgotten
	// while others read their status.
	const submitters = 4
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 3*maxTerminalHistory; i += submitters {
				key := fmt.Sprintf("done-%d", i)
				j, _, fresh, err := e.Submit(key, 1, func(ctx context.Context, progress func(int)) ([]byte, error) {
					t.Errorf("task for %s ran despite its stored bytes", key)
					return nil, nil
				})
				if err != nil || fresh {
					t.Errorf("resubmit %s = (fresh=%v, err=%v), want a store hit", key, fresh, err)
					return
				}
				if j == firstDone {
					t.Errorf("resubmit of forgotten key %s returned the forgotten job %s", key, j.ID())
				}
				if st := j.Status(); st.State != StateDone {
					t.Errorf("resubmit %s: state %s, want done", key, st.State)
				}
			}
		}(w)
	}
	wg.Wait()
	checkIndex(t, e)
	if st := live.Status(); st.State != StateRunning {
		t.Fatalf("live job state %s, want running", st.State)
	}
}

// TestFinishedJobDropsExecutionState pins what a terminal job keeps:
// its status, but no task, context, cancel func or result slot,
// whichever way it ended.
func TestFinishedJobDropsExecutionState(t *testing.T) {
	e := NewEngine(cache.NewStore(), 1, 8)
	defer e.Close()

	started := make(chan struct{})
	running, _, _, err := e.Submit("running", 0, func(ctx context.Context, progress func(int)) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, _, _, err := e.Submit("queued", 0, func(ctx context.Context, progress func(int)) ([]byte, error) {
		return []byte("never runs"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	if err := e.Cancel(running.ID()); err != nil {
		t.Fatal(err)
	}
	done, _, _, err := e.Submit("done", 0, func(ctx context.Context, progress func(int)) ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	failed, _, _, err := e.Submit("failed", 0, func(ctx context.Context, progress func(int)) ([]byte, error) {
		return nil, errors.New("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		job  *Job
		want State
	}{{running, StateCanceled}, {queued, StateCanceled}, {done, StateDone}, {failed, StateFailed}} {
		if st := waitJob(t, c.job); st.State != c.want {
			t.Fatalf("job %s: state %s, want %s", c.job.ID(), st.State, c.want)
		}
		c.job.mu.Lock()
		task, ctx, cancel, slot := c.job.task, c.job.ctx, c.job.cancel, c.job.result
		c.job.mu.Unlock()
		if task != nil || ctx != nil || cancel != nil || slot != nil {
			t.Errorf("%s job %s still holds task %v, context %v, cancel func %v, result slot %v",
				c.want, c.job.ID(), task != nil, ctx != nil, cancel != nil, slot != nil)
		}
	}
}

// TestEvictedResultRecomputes pins the bounded-store interaction: once
// a done job's bytes are evicted from the result store, resubmitting
// the same key must enqueue fresh work instead of coalescing onto the
// dangling done job, which has no bytes to hand over.
func TestEvictedResultRecomputes(t *testing.T) {
	// Bound sized to hold exactly one of the two results at a time:
	// each entry costs len(key)+len(value) = 5+8 = 13 bytes.
	store := cache.NewBounded(16)
	e := NewEngine(store, 1, 8)
	defer e.Close()

	var runs atomic.Int64
	task := func(ctx context.Context, progress func(int)) ([]byte, error) {
		runs.Add(1)
		return []byte("result-a"), nil
	}
	j, _, fresh, err := e.Submit("key-a", 1, task)
	if err != nil || !fresh {
		t.Fatalf("first Submit = (fresh=%v, err=%v)", fresh, err)
	}
	waitJob(t, j)

	// While the bytes are resident, a resubmission coalesces.
	if _, _, fresh, err := e.Submit("key-a", 1, task); err != nil || fresh {
		t.Fatalf("warm resubmit = (fresh=%v, err=%v), want coalesced", fresh, err)
	}

	// Evict key-a by inserting a second result past the bound.
	jb, _, _, err := e.Submit("key-b", 1, func(ctx context.Context, progress func(int)) ([]byte, error) {
		return []byte("result-b"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, jb)
	if store.Has("key-a") {
		t.Fatal("test setup: key-a still resident after over-bound insert")
	}

	j2, _, fresh, err := e.Submit("key-a", 1, task)
	if err != nil || !fresh {
		t.Fatalf("post-eviction resubmit = (fresh=%v, err=%v), want fresh", fresh, err)
	}
	waitJob(t, j2)
	if got := runs.Load(); got != 2 {
		t.Fatalf("task ran %d times, want 2 (original + post-eviction recompute)", got)
	}
	if data, ok := store.Get("key-a"); !ok || string(data) != "result-a" {
		t.Fatalf("recomputed bytes: %q, %v", data, ok)
	}
}

// TestCoalescedWaiterGetsBytesTheStoreDropped pins the result slot: a
// submission that coalesces onto a running job gets the job's bytes
// from the job itself, even over a store that keeps nothing, and the
// finished record keeps no slot.
func TestCoalescedWaiterGetsBytesTheStoreDropped(t *testing.T) {
	store := cache.NewBounded(1) // every entry is over budget: Put keeps nothing
	e := NewEngine(store, 1, 8)
	defer e.Close()

	started, release := make(chan struct{}), make(chan struct{})
	first, res1, fresh, err := e.Submit("key", 1, func(ctx context.Context, progress func(int)) ([]byte, error) {
		close(started)
		<-release
		return []byte("the job's bytes"), nil
	})
	if err != nil || !fresh {
		t.Fatalf("first Submit = (fresh=%v, err=%v), want fresh", fresh, err)
	}
	<-started
	j, res2, fresh, err := e.Submit("key", 1, nil)
	if err != nil || fresh || j != first {
		t.Fatalf("Submit while running = (fresh=%v, err=%v), want coalesced onto %s", fresh, err, first.ID())
	}
	close(release)
	if st := waitJob(t, j); st.State != StateDone {
		t.Fatalf("state %s, want done", st.State)
	}
	if store.Len() != 0 {
		t.Fatal("test setup: the store kept the bytes")
	}
	for i, res := range []*Result{res1, res2} {
		if got := string(res.Bytes()); got != "the job's bytes" {
			t.Errorf("submission %d carries %q, want the job's bytes", i+1, got)
		}
	}
	j.mu.Lock()
	slot := j.result
	j.mu.Unlock()
	if slot != nil {
		t.Fatalf("finished job %s keeps its result slot", j.ID())
	}
}
