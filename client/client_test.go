package client_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faultroute"
	"faultroute/api"
	"faultroute/client"
	"faultroute/serve"
)

// newService mounts a fresh in-process faultrouted on an httptest
// server and returns a client pointed at it.
func newService(t *testing.T, workers int) *client.Client {
	t.Helper()
	svc := serve.New(serve.Options{Workers: workers, Executors: 2, QueueDepth: 16})
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return client.New(ts.URL)
}

// identityRequests is the matrix of the client-vs-in-process identity
// guarantee: one request per kind.
func identityRequests() []api.Request {
	dst := uint64(63)
	return []api.Request{
		{Kind: api.KindEstimate, Estimate: &api.EstimateSpec{
			Graph: api.GraphSpec{Family: "hypercube", N: 6},
			P:     0.7, Router: "path-follow", Src: 0, Dst: &dst,
			Trials: 5, Seed: 2,
		}},
		{Kind: api.KindExperiment, Experiment: &api.ExperimentSpec{ID: "E5", Seed: 1, Scale: "quick"}},
		{Kind: api.KindPercolation, Percolation: &api.PercolationSpec{
			Graph: api.GraphSpec{Family: "mesh", Side: 8},
			Ps:    []float64{0.3, 0.7}, Trials: 3, Seed: 1,
		}},
	}
}

func TestClientMatchesLocalByteForByte(t *testing.T) {
	// The acceptance guarantee of the Runner redesign: the same
	// api.Request through faultroute.Local and through the HTTP client
	// against a faultrouted service yields byte-identical canonical JSON
	// — and the same content address.
	remote := newService(t, 3)
	local := faultroute.NewLocal(faultroute.WithWorkers(1))
	ctx := context.Background()
	for _, req := range identityRequests() {
		viaLocal, err := local.Do(ctx, req)
		if err != nil {
			t.Fatalf("%s: local: %v", req.Kind, err)
		}
		viaClient, err := remote.Do(ctx, req)
		if err != nil {
			t.Fatalf("%s: client: %v", req.Kind, err)
		}
		if viaLocal.Key != viaClient.Key {
			t.Fatalf("%s: keys differ: local %s vs client %s", req.Kind, viaLocal.Key, viaClient.Key)
		}
		if !bytes.Equal(viaLocal.Body, viaClient.Body) {
			t.Fatalf("%s: bodies differ:\nlocal:  %s\nclient: %s", req.Kind, viaLocal.Body, viaClient.Body)
		}
	}
}

func TestClientWatchStreamsProgress(t *testing.T) {
	c := newService(t, 2)
	req := api.Request{Kind: api.KindEstimate, Estimate: &api.EstimateSpec{
		Graph: api.GraphSpec{Family: "hypercube", N: 6},
		P:     0.7, Trials: 8, Seed: 5,
	}}
	var mu sync.Mutex
	var events []api.Event
	res, err := c.Watch(context.Background(), req, func(ev api.Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Body) == 0 {
		t.Fatal("empty result body")
	}
	if len(events) == 0 {
		t.Fatal("Watch delivered no events")
	}
	last := events[len(events)-1]
	if last.State != api.JobDone {
		t.Fatalf("final event state = %s, want done", last.State)
	}
	for i := 1; i < len(events); i++ {
		if events[i] == events[i-1] {
			t.Fatalf("duplicate consecutive event: %+v", events[i])
		}
		if events[i].Done < events[i-1].Done {
			t.Fatalf("progress went backwards: %+v -> %+v", events[i-1], events[i])
		}
	}
}

func TestClientResultBeforeDoneIs404(t *testing.T) {
	c := newService(t, 1)
	req := api.Request{Kind: api.KindEstimate, Estimate: &api.EstimateSpec{
		Graph: api.GraphSpec{Family: "hypercube", N: 6},
		P:     0.7, Trials: 2, Seed: 8,
	}}
	key, err := api.Key(req)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Result(context.Background(), key)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("Result before submit: err = %v, want 404 APIError", err)
	}
}

func TestClientCancelFinishedJobIsConflict(t *testing.T) {
	c := newService(t, 1)
	req := api.Request{Kind: api.KindEstimate, Estimate: &api.EstimateSpec{
		Graph: api.GraphSpec{Family: "hypercube", N: 5},
		P:     0.8, Trials: 2, Seed: 4,
	}}
	res, err := c.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.Submit(context.Background(), req) // cache hit: returns the done job
	if err != nil {
		t.Fatal(err)
	}
	if !sub.Cached || sub.Job.Key != res.Key {
		t.Fatalf("resubmission missed the cache: %+v", sub)
	}
	_, err = c.Cancel(context.Background(), sub.Job.ID)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict {
		t.Fatalf("Cancel of finished job: err = %v, want 409 APIError", err)
	}
}

func TestClientRetriesTransientFailures(t *testing.T) {
	// A flaky front-end: the first two requests die mid-flight, the rest
	// reach a healthy service. The client's retry policy must absorb the
	// failures; content addressing makes the retried submissions safe.
	svc := serve.New(serve.Options{Workers: 1, Executors: 2, QueueDepth: 16})
	t.Cleanup(svc.Close)
	handler := svc.Handler()
	var failures atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failures.Add(1) <= 2 {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("recorder not hijackable")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatal(err)
			}
			conn.Close() // simulate a dropped connection
			return
		}
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)

	c := client.New(flaky.URL, client.WithRetry(4, time.Millisecond))
	req := api.Request{Kind: api.KindEstimate, Estimate: &api.EstimateSpec{
		Graph: api.GraphSpec{Family: "hypercube", N: 5},
		P:     0.9, Trials: 2, Seed: 6,
	}}
	res, err := c.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("Do through flaky front-end: %v", err)
	}
	if len(res.Body) == 0 {
		t.Fatal("empty result")
	}
	if failures.Load() <= 2 {
		t.Fatal("flaky front-end never exercised the retry path")
	}
}

func TestClientExperimentsAndHealth(t *testing.T) {
	c := newService(t, 1)
	infos, err := c.Experiments(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 21 || infos[0].ID != "E1" {
		t.Fatalf("registry = %d entries, first %+v", len(infos), infos[0])
	}
	h, err := c.Health(context.Background())
	if err != nil || !h.OK {
		t.Fatalf("health = %+v, %v", h, err)
	}
}
