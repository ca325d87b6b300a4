package dispatch_test

// Fault injection under the pool's clients. Whatever a deterministic
// schedule of transport errors, 5xx answers, truncated bodies, swapped
// bodies, delays and duplicate deliveries does to the wire, Pool.Do
// returns Local's exact bytes or an error, never other bytes.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faultroute"
	"faultroute/api"
	"faultroute/client"
	"faultroute/dispatch"
	"faultroute/internal/rng"
)

// fault is what faultyTransport does to one request.
type fault int

const (
	pass       fault = iota
	dropped          // the round trip fails with a transport error
	status500        // a 500 answers, the backend never sees the request
	status503        // a 503 answers, the backend never sees the request
	truncated        // a 200 body that can carry a result is cut in half, Content-Length dropped
	swapped          // GET /v1/results/{key} is answered with another key's stored body
	delayed          // the request waits its scheduled delay, or until its context ends, before it is forwarded
	duplicated       // the request is forwarded twice, its body re-read through GetBody; the second answer returns
	numFaults
)

// faultyTransport is a deterministic fault injector: schedule picks the
// fault for each request, and the delay a delayed request waits, from
// its method, path and occurrence count alone, never from a clock or a
// shared random stream. truncated applies to the responses that can
// carry a result: GET /v1/results, a 200 POST /v1/jobs (a cached submit
// carries its bytes inline, a streamed one in its result event) and GET
// /v1/jobs/{id}/events; swapped applies only to GET /v1/results.
// Anywhere else they pass.
type faultyTransport struct {
	schedule func(id string, n int) (fault, time.Duration)
	foreign  map[string][]byte // stored bodies by key, the swapped answers

	mu       sync.Mutex
	seen     map[string]int
	injected [numFaults]atomic.Int64
	cut      atomic.Int64 // delayed requests whose context ended first
}

func newFaultyTransport(schedule func(id string, n int) (fault, time.Duration), foreign map[string][]byte) *faultyTransport {
	return &faultyTransport{schedule: schedule, foreign: foreign, seen: map[string]int{}}
}

func (f *faultyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	id := r.Method + " " + r.URL.Path
	f.mu.Lock()
	n := f.seen[id]
	f.seen[id]++
	f.mu.Unlock()
	key, isResult := strings.CutPrefix(r.URL.Path, api.BasePath+"/results/")
	isResult = isResult && r.Method == http.MethodGet
	isSubmit := r.Method == http.MethodPost && r.URL.Path == api.BasePath+"/jobs"
	isEvents := r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/events")

	ft, wait := f.schedule(id, n)
	switch {
	case ft == dropped:
		f.injected[ft].Add(1)
		return nil, errors.New("injected: connection reset")
	case ft == status500 || ft == status503:
		f.injected[ft].Add(1)
		code := map[fault]int{status500: http.StatusInternalServerError, status503: http.StatusServiceUnavailable}[ft]
		return reply(r, code, []byte(`{"error":"injected"}`)), nil
	case ft == swapped && isResult:
		others := make([]string, 0, len(f.foreign))
		for k := range f.foreign {
			if k != key {
				others = append(others, k)
			}
		}
		if len(others) == 0 {
			break
		}
		slices.Sort(others)
		f.injected[ft].Add(1)
		return reply(r, http.StatusOK, f.foreign[others[n%len(others)]]), nil
	case ft == truncated && (isResult || isSubmit || isEvents):
		resp, err := http.DefaultTransport.RoundTrip(r)
		if err != nil || resp.StatusCode != http.StatusOK {
			return resp, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		f.injected[ft].Add(1)
		resp.Body = io.NopCloser(bytes.NewReader(body[:len(body)/2]))
		resp.ContentLength = -1
		resp.Header.Del("Content-Length")
		return resp, nil
	case ft == delayed:
		f.injected[ft].Add(1)
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-r.Context().Done():
			f.cut.Add(1)
			return nil, r.Context().Err()
		}
	case ft == duplicated:
		resp, err := http.DefaultTransport.RoundTrip(r)
		if err != nil {
			return nil, err
		}
		resp.Body.Close()
		again := r.Clone(r.Context())
		if r.GetBody != nil {
			if again.Body, err = r.GetBody(); err != nil {
				return nil, err
			}
		}
		f.injected[ft].Add(1)
		return http.DefaultTransport.RoundTrip(again)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// reply builds a response the backend never sent.
func reply(r *http.Request, code int, body []byte) *http.Response {
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", code, http.StatusText(code)),
		StatusCode:    code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       r,
	}
}

// seeded returns schedule number seed: about one request in four is
// faulted, with the seven faults equally likely, and a delayed request
// waits 0–300 ms, so some stored reads outlive their deadline.
func seeded(seed uint64) func(id string, n int) (fault, time.Duration) {
	return func(id string, n int) (fault, time.Duration) {
		fh := fnv.New64a()
		io.WriteString(fh, id)
		h := rng.Combine(seed, rng.Combine(fh.Sum64(), uint64(n)))
		if h%4 != 0 {
			return pass, 0
		}
		return dropped + fault((h>>8)%uint64(numFaults-dropped)), time.Duration((h>>24)%301) * time.Millisecond
	}
}

// shardBodies returns Local's stored body of every shard of the
// estimate req, by content key.
func shardBodies(t *testing.T, req api.Request) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for i := range dispatch.ShardRanges(req.Estimate.Trials) {
		res, err := faultroute.NewLocal().Do(context.Background(), shardOf(req, i))
		if err != nil {
			t.Fatal(err)
		}
		out[res.Key] = res.Body
	}
	return out
}

func TestPoolUnderInjectedFaultsReturnsLocalBytesOrError(t *testing.T) {
	estimate := estimateReq(64)
	experiment := api.Request{
		Kind:       api.KindExperiment,
		Experiment: &api.ExperimentSpec{ID: "E1", Seed: 1, Scale: "quick"},
	}
	// Both swap from the estimate's shard bodies: a shard answered with
	// another shard's rows, and an experiment answered with a shard.
	foreign := shardBodies(t, estimate)
	var (
		total [numFaults]int64
		cut   int64
	)
	for _, tc := range []struct {
		name     string
		req      api.Request
		backends int
	}{
		{"sharded-estimate/backends=2", estimate, 2},
		{"sharded-estimate/backends=4", estimate, 4},
		{"experiment-whole/backends=2", experiment, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			want, err := faultroute.NewLocal().Do(ctx, tc.req)
			if err != nil {
				t.Fatal(err)
			}
			urls := make([]string, tc.backends)
			for i := range urls {
				urls[i] = newBackend(t, nil).srv.URL
			}
			// The backends persist across schedules: early schedules submit
			// and compute, later ones mostly read stored results.
			var ok, failed int
			for seed := uint64(1); seed <= 20; seed++ {
				ft := newFaultyTransport(seeded(seed), foreign)
				pool := newPool(t, urls, dispatch.WithClientOptions(client.WithHTTPClient(&http.Client{Transport: ft})))
				got, err := pool.Do(ctx, tc.req)
				for k := range total {
					total[k] += ft.injected[k].Load()
				}
				cut += ft.cut.Load()
				if err != nil {
					failed++
					continue
				}
				if got.Key != want.Key || !bytes.Equal(got.Body, want.Body) {
					t.Fatalf("schedule %d returned other bytes:\n got %s %s\nwant %s %s", seed, got.Key, got.Body, want.Key, want.Body)
				}
				ok++
			}
			t.Logf("%d schedules returned Local's bytes, %d an error", ok, failed)
			if ok == 0 {
				t.Fatal("no schedule returned bytes, so the property was never checked against a result")
			}
		})
	}
	for k := dropped; k < numFaults; k++ {
		if total[k] == 0 {
			t.Errorf("fault %d was never injected", k)
		}
	}
	if cut == 0 {
		t.Error("no delayed request outlived its deadline, so no stored read timed out")
	}
	t.Logf("faults injected (dropped, 500, 503, truncated, swapped, delayed, duplicated): %v; %d delayed requests outlived their deadline", total[dropped:], cut)
}

func TestPoolRejectsTruncatedResultBody(t *testing.T) {
	// Every 200 GET /v1/results body, POST /v1/jobs body and event
	// stream arrives cut in half, with no Content-Length and no error: a
	// one-backend pool must fail, never return the prefix as E1's
	// result, whether the cut falls in a JSON body or in the result
	// event of the submit's stream.
	b := newBackend(t, nil)
	ft := newFaultyTransport(func(string, int) (fault, time.Duration) { return truncated, 0 }, nil)
	pool := newPool(t, []string{b.srv.URL},
		dispatch.WithClientOptions(client.WithHTTPClient(&http.Client{Transport: ft})))
	req := api.Request{
		Kind:       api.KindExperiment,
		Experiment: &api.ExperimentSpec{ID: "E1", Seed: 1, Scale: "quick"},
	}
	if res, err := pool.Do(context.Background(), req); err == nil {
		t.Fatalf("Do returned %d bytes from truncated bodies with a nil error", len(res.Body))
	}
	if ft.injected[truncated].Load() == 0 {
		t.Fatal("no body was truncated, so nothing was checked")
	}
}

func TestPoolDuplicatedSubmitCoalesces(t *testing.T) {
	// Every POST /v1/jobs reaches the backend twice. The second copy of a
	// submit finds the first one's job in flight or stored and attaches
	// to it, so each shard is enqueued once, and the pool returns Local's
	// bytes.
	b := newBackend(t, nil)
	ft := newFaultyTransport(func(id string, _ int) (fault, time.Duration) {
		if id == http.MethodPost+" "+api.BasePath+"/jobs" {
			return duplicated, 0
		}
		return pass, 0
	}, nil)
	pool := newPool(t, []string{b.srv.URL},
		dispatch.WithClientOptions(client.WithHTTPClient(&http.Client{Transport: ft})))
	ctx := context.Background()
	req := estimateReq(64)
	want, err := faultroute.NewLocal().Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Body, want.Body) {
		t.Fatalf("pool bytes differ from local:\n got %s\nwant %s", got.Body, want.Body)
	}
	shards := len(dispatch.ShardRanges(req.Estimate.Trials))
	if n := ft.injected[duplicated].Load(); n < int64(shards) {
		t.Fatalf("%d submits were doubled, want at least one per shard (%d)", n, shards)
	}
	if fresh := scrapeCounter(t, b.srv.URL, `faultroute_jobs_submitted_total{outcome="fresh"}`); fresh != float64(shards) {
		t.Fatalf("the backend enqueued %v jobs for %d shards, want one each", fresh, shards)
	}
}
