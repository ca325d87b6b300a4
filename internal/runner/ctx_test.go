package runner

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapCtxMatchesMap(t *testing.T) {
	// With a background context and no hook, MapCtx is a plain
	// index-ordered map.
	for _, workers := range []int{1, 4} {
		got, err := MapCtx(context.Background(), New(workers), 50, nil, func(i int) (int, error) {
			return i + 1, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i+1 {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapCtxNilContext(t *testing.T) {
	out, err := MapCtx(nil, New(2), 4, nil, func(i int) (int, error) { return i, nil })
	if err != nil || len(out) != 4 {
		t.Fatalf("nil ctx: (%v, %v)", out, err)
	}
}

func TestMapCtxProgressCountsEveryShard(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var done atomic.Int64
		_, err := MapCtx(context.Background(), New(workers), 37, func(delta int) {
			done.Add(int64(delta))
		}, func(i int) (int, error) {
			return i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := done.Load(); got != 37 {
			t.Fatalf("workers=%d: progress counted %d shards, want 37", workers, got)
		}
	}
}

func TestMapCtxCancellationStopsClaiming(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		_, err := MapCtx(ctx, New(workers), 1_000_000, nil, func(i int) (int, error) {
			if ran.Add(1) == 10 {
				cancel()
			}
			return i, nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// Workers stop claiming promptly: far fewer than n shards ran.
		if got := ran.Load(); got > 1000 {
			t.Fatalf("workers=%d: %d shards ran after cancellation", workers, got)
		}
	}
}

func TestMapCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := MapCtx(ctx, New(4), 1_000_000, nil, func(i int) (int, error) {
		time.Sleep(100 * time.Microsecond)
		return i, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// pastDeadline is a context whose deadline has passed but whose timer
// has not fired: Done never closes and Err stays nil, which is how a
// context.WithTimeout looks to CPU-bound workers until the runtime runs
// its timer.
type pastDeadline struct{ context.Context }

func (pastDeadline) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

func TestMapCtxPassedDeadlineByTheClock(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		_, err := MapCtx(pastDeadline{context.Background()}, New(workers), 500, nil, func(i int) (int, error) {
			calls.Add(1)
			return i, nil
		})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("workers=%d: err = %v, want context.DeadlineExceeded", workers, err)
		}
		if got := calls.Load(); got != 0 {
			t.Fatalf("workers=%d: fn ran %d times past the deadline, want 0", workers, got)
		}
	}
}

func TestMapCtxShardErrorBeatsCancellation(t *testing.T) {
	// A shard failure followed by cancellation must still surface the
	// shard's error: cancellation only truncates, it never masks.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("boom")
	_, err := MapCtx(ctx, New(4), 1000, nil, func(i int) (int, error) {
		if i == 3 {
			cancel()
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the shard error", err)
	}
}
