package dispatch_test

// Cross-backend byte identity for the failure-model axis and the
// kleinberg family (PR 10): the new experiments and FailSpec estimates
// must produce the exact bytes of the in-process run when dispatched —
// sharded, hedged, or both. The mask seed is split from the sample
// seed, never from worker or shard indices, so this is a structural
// guarantee, not a scheduling accident; these tests are the pins.

import (
	"bytes"
	"context"
	"testing"
	"time"

	"faultroute"
	"faultroute/api"
	"faultroute/dispatch"
)

func TestPoolFailureExperimentsByteIdenticalToLocal(t *testing.T) {
	// E19/E20 draw correlated outages per trial, E21 routes on freshly
	// built kleinberg graphs: all three through a hedged 2-backend pool
	// must match faultroute.Local byte for byte.
	b1, b2 := newBackend(t, nil), newBackend(t, nil)
	pool := newPool(t, []string{b1.srv.URL, b2.srv.URL}, dispatch.WithHedgeAfter(time.Millisecond))
	local := faultroute.NewLocal()
	ctx := context.Background()
	for _, id := range []string{"E19", "E20", "E21"} {
		req := api.Request{
			Kind:       api.KindExperiment,
			Experiment: &api.ExperimentSpec{ID: id, Seed: 1, Scale: "quick"},
		}
		want, err := local.Do(ctx, req)
		if err != nil {
			t.Fatalf("%s local: %v", id, err)
		}
		got, err := pool.Do(ctx, req)
		if err != nil {
			t.Fatalf("%s pool: %v", id, err)
		}
		if got.Key != want.Key {
			t.Fatalf("%s: pool key %s != local key %s", id, got.Key, want.Key)
		}
		if !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("%s: pool bytes differ from local:\n got %s\nwant %s", id, got.Body, want.Body)
		}
	}
}

func TestPoolShardedFailureEstimateByteIdenticalToLocal(t *testing.T) {
	// A regional-outage estimate split into shards across two backends:
	// every shard must draw the SAME per-trial outage masks the
	// in-process run draws, so the merged counts are byte-identical.
	b1, b2 := newBackend(t, nil), newBackend(t, nil)
	pool := newPool(t, []string{b1.srv.URL, b2.srv.URL})
	ctx := context.Background()

	for _, fail := range []*api.FailSpec{
		{Model: "region", Radius: 1, Count: 1, Seed: 4},
		{Model: "nodes", Count: 5, Seed: 4},
		{Model: "iid", Rate: 0.05, Seed: 4},
	} {
		req := api.Request{
			Kind: api.KindEstimate,
			Estimate: &api.EstimateSpec{
				Graph:  api.GraphSpec{Family: "hypercube", N: 7},
				P:      0.7,
				Trials: 40,
				Seed:   3,
				Fail:   fail,
			},
		}
		want, err := faultroute.NewLocal().Do(ctx, req)
		if err != nil {
			t.Fatalf("%s local: %v", fail.Model, err)
		}
		got, err := pool.Do(ctx, req)
		if err != nil {
			t.Fatalf("%s pool: %v", fail.Model, err)
		}
		if got.Key != want.Key {
			t.Fatalf("%s: pool key %s != local key %s", fail.Model, got.Key, want.Key)
		}
		if !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("%s: sharded bytes differ from local:\n got %s\nwant %s",
				fail.Model, got.Body, want.Body)
		}
	}
}

func TestPoolShardedKleinbergEstimateByteIdenticalToLocal(t *testing.T) {
	b1, b2 := newBackend(t, nil), newBackend(t, nil)
	pool := newPool(t, []string{b1.srv.URL, b2.srv.URL})
	ctx := context.Background()

	req := api.Request{
		Kind: api.KindEstimate,
		Estimate: &api.EstimateSpec{
			Graph:  api.GraphSpec{Family: "kleinberg", D: 2, Side: 8, Seed: 3},
			P:      0.85,
			Trials: 64,
			Seed:   6,
		},
	}
	want, err := faultroute.NewLocal().Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != want.Key {
		t.Fatalf("pool key %s != local key %s", got.Key, want.Key)
	}
	if !bytes.Equal(got.Body, want.Body) {
		t.Fatalf("sharded kleinberg bytes differ from local:\n got %s\nwant %s", got.Body, want.Body)
	}
}
