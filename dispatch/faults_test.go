package dispatch_test

// Fault injection under the pool's clients. Whatever a deterministic
// schedule of transport errors, 5xx answers, truncated bodies and
// swapped bodies does to the wire, Pool.Do returns Local's exact bytes
// or an error, never other bytes.

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

	"faultroute"
	"faultroute/api"
	"faultroute/client"
	"faultroute/dispatch"
	"faultroute/internal/rng"
)

// fault is what faultyTransport does to one request.
type fault int

const (
	pass      fault = iota
	dropped         // the round trip fails with a transport error
	status500       // a 500 answers, the backend never sees the request
	status503       // a 503 answers, the backend never sees the request
	truncated       // a 200 GET /v1/results body is cut in half, Content-Length dropped
	swapped         // GET /v1/results/{key} is answered with another key's stored body
	numFaults
)

// faultyTransport is a deterministic fault injector: schedule picks the
// fault for each request from its method, path and occurrence count
// alone, never from a clock or a shared random stream. truncated and
// swapped apply only to GET /v1/results; anywhere else they pass.
type faultyTransport struct {
	schedule func(id string, n int) fault
	foreign  map[string][]byte // stored bodies by key, the swapped answers

	mu       sync.Mutex
	seen     map[string]int
	injected [numFaults]atomic.Int64
}

func newFaultyTransport(schedule func(id string, n int) fault, foreign map[string][]byte) *faultyTransport {
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

	switch ft := f.schedule(id, n); {
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
	case ft == truncated && isResult:
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
// faulted, with the five faults equally likely.
func seeded(seed uint64) func(id string, n int) fault {
	return func(id string, n int) fault {
		fh := fnv.New64a()
		io.WriteString(fh, id)
		h := rng.Combine(seed, rng.Combine(fh.Sum64(), uint64(n)))
		if h%4 != 0 {
			return pass
		}
		return dropped + fault((h>>8)%uint64(numFaults-dropped))
	}
}

// shardBodies returns Local's stored body of every 4-trial shard of the
// estimate req, by content key.
func shardBodies(t *testing.T, req api.Request) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for off := 0; off < req.Estimate.Trials; off += 4 {
		res, err := faultroute.NewLocal().Do(context.Background(), shardOf(req, off, min(4, req.Estimate.Trials-off)))
		if err != nil {
			t.Fatal(err)
		}
		out[res.Key] = res.Body
	}
	return out
}

func TestPoolUnderInjectedFaultsReturnsLocalBytesOrError(t *testing.T) {
	estimate := estimateReq(20)
	experiment := api.Request{
		Kind:       api.KindExperiment,
		Experiment: &api.ExperimentSpec{ID: "E1", Seed: 1, Scale: "quick"},
	}
	// Both swap from the estimate's shard bodies: a shard answered with
	// another shard's rows, and an experiment answered with a shard.
	foreign := shardBodies(t, estimate)
	var total [numFaults]int64
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
				pool := newPool(t, urls, dispatch.WithShardTrials(4),
					dispatch.WithClientOptions(client.WithHTTPClient(&http.Client{Transport: ft})))
				got, err := pool.Do(ctx, tc.req)
				for k := range total {
					total[k] += ft.injected[k].Load()
				}
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
	t.Logf("faults injected (dropped, 500, 503, truncated, swapped): %v", total[dropped:])
}

func TestPoolRejectsTruncatedResultBody(t *testing.T) {
	// Every 200 GET /v1/results body arrives cut in half, with no
	// Content-Length and no error: a one-backend pool must fail, never
	// return the prefix as E1's result.
	b := newBackend(t, nil)
	ft := newFaultyTransport(func(string, int) fault { return truncated }, nil)
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
