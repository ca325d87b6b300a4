package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"faultroute/internal/graph"
	"faultroute/internal/route"
)

func parallelTestSpec(t *testing.T) (Spec, graph.Vertex, graph.Vertex) {
	t.Helper()
	g, err := graph.NewHypercube(8)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Graph:  g,
		P:      0.45,
		Router: route.NewPathFollow(),
		Mode:   ModeLocal,
	}
	return spec, 0, g.Antipode(0)
}

// TestEstimateWorkersDeterministic is the engine's core guarantee: the
// Complexity from a parallel run is bit-identical to the sequential
// (workers=1) path for the same seed, for any worker count.
func TestEstimateWorkersDeterministic(t *testing.T) {
	spec, src, dst := parallelTestSpec(t)
	ctx := context.Background()
	seq, err := EstimateCtx(ctx, spec, src, dst, 24, 100, 7, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		par, err := EstimateCtx(ctx, spec, src, dst, 24, 100, 7, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d produced a different Complexity:\nseq: %+v\npar: %+v",
				workers, seq, par)
		}
	}
}

// TestEstimateBatchMatchesSeparateCalls: batching a sweep through one
// pool must not change any individual result.
func TestEstimateBatchMatchesSeparateCalls(t *testing.T) {
	spec, src, dst := parallelTestSpec(t)
	ctx := context.Background()
	ps := []float64{0.35, 0.45, 0.6}
	reqs := make([]Request, len(ps))
	want := make([]Complexity, len(ps))
	for i, p := range ps {
		s := spec
		s.P = p
		reqs[i] = Request{Spec: s, Src: src, Dst: dst, Trials: 8, MaxTries: 100, Seed: 11}
		c, err := EstimateCtx(ctx, s, src, dst, 8, 100, 11, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = c
	}
	for _, workers := range []int{1, 4} {
		got, err := EstimateBatchCtx(ctx, reqs, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: batch results differ from separate calls:\n%+v\n%+v",
				workers, got, want)
		}
	}
}

func TestEstimateBatchValidates(t *testing.T) {
	spec, src, dst := parallelTestSpec(t)
	ctx := context.Background()
	if _, err := EstimateBatchCtx(ctx, []Request{{Spec: spec, Src: src, Dst: dst, Trials: 0}}, 2, nil); err == nil {
		t.Fatal("zero trials accepted")
	}
	if _, err := EstimateBatchCtx(ctx, []Request{{Trials: 5}}, 2, nil); err == nil {
		t.Fatal("empty spec accepted")
	}
	if out, err := EstimateBatchCtx(ctx, nil, 2, nil); err != nil || len(out) != 0 {
		t.Fatalf("empty batch = (%v, %v)", out, err)
	}
}

// TestEstimateWorkersConditioningError: conditioning failures must
// surface identically from the parallel and sequential paths.
func TestEstimateWorkersConditioningError(t *testing.T) {
	spec, src, dst := parallelTestSpec(t)
	spec.P = 0.01 // deep subcritical: {src ~ dst} essentially never happens
	for _, workers := range []int{1, 8} {
		_, err := EstimateCtx(context.Background(), spec, src, dst, 6, 5, 1, workers, nil)
		if !errors.Is(err, ErrConditioning) {
			t.Fatalf("workers=%d: err = %v, want ErrConditioning", workers, err)
		}
	}
}
