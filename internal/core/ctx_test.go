package core

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
)

// TestEstimateCtxMatchesEstimateWorkers pins the progress hook as pure
// observability: a hooked run must not perturb a single bit of the
// Complexity of the unhooked run.
func TestEstimateCtxMatchesEstimateWorkers(t *testing.T) {
	spec, src, dst := parallelTestSpec(t)
	want, err := EstimateCtx(context.Background(), spec, src, dst, 12, 100, 5, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Int64
	got, err := EstimateCtx(context.Background(), spec, src, dst, 12, 100, 5, 3,
		func(delta int) { done.Add(int64(delta)) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("hooked EstimateCtx differs from the unhooked run:\n%+v\n%+v", want, got)
	}
	if done.Load() != 12 {
		t.Fatalf("progress counted %d trials, want 12", done.Load())
	}
}

func TestEstimateCtxCanceled(t *testing.T) {
	spec, src, dst := parallelTestSpec(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := EstimateCtx(ctx, spec, src, dst, 50, 100, 1, 2, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestEstimateBatchCtxCanceledAndProgress(t *testing.T) {
	spec, src, dst := parallelTestSpec(t)
	reqs := []Request{
		{Spec: spec, Src: src, Dst: dst, Trials: 6, MaxTries: 100, Seed: 2},
		{Spec: spec, Src: src, Dst: dst, Trials: 6, MaxTries: 100, Seed: 3},
	}
	var done atomic.Int64
	got, err := EstimateBatchCtx(context.Background(), reqs, 4,
		func(delta int) { done.Add(int64(delta)) })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d results", len(got))
	}
	if done.Load() != 12 {
		t.Fatalf("progress counted %d trials, want 12 across the batch", done.Load())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EstimateBatchCtx(ctx, reqs, 4, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
