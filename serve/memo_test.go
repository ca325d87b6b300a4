package serve_test

// Tests for the submit memo (memo.go): the duplicate-submission fast
// path must be byte-transparent — identical responses whether a
// cache-hit submit is served by the decoder or the frozen bytes — and
// must never leak across distinct bodies. A cached answer carries the
// stored result bytes on either path, and only while the store holds
// them.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"faultroute"
	"faultroute/api"
	"faultroute/internal/cache"
	"faultroute/serve"
)

// postRaw submits a raw body and returns status + exact response
// bytes.
func postRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func TestSubmitMemoFastPathIsByteTransparent(t *testing.T) {
	ts := newTestServer(t, 1)
	body := `{"kind":"estimate","estimate":{"graph":{"family":"hypercube","n":6},"p":0.7,"trials":4,"seed":11}}`

	code, first := postRaw(t, ts.URL, body)
	if code != http.StatusAccepted {
		t.Fatalf("fresh submit: status %d\n%s", code, first)
	}
	var sub api.SubmitResponse
	if err := json.Unmarshal(first, &sub); err != nil {
		t.Fatal(err)
	}
	awaitJob(t, ts.URL, sub.Job.ID)

	// First duplicate after completion: slow path, freezes the bytes.
	// Second duplicate: served from the frozen bytes. The two responses
	// must be byte-identical — the memo is an optimization, not an
	// observable behavior change.
	code1, hit1 := postRaw(t, ts.URL, body)
	code2, hit2 := postRaw(t, ts.URL, body)
	if code1 != http.StatusOK || code2 != http.StatusOK {
		t.Fatalf("cache-hit submits: status %d, %d, want 200", code1, code2)
	}
	if !bytes.Equal(hit1, hit2) {
		t.Fatalf("memo fast path changed the response bytes:\nslow: %s\nfast: %s", hit1, hit2)
	}
	var hit api.SubmitResponse
	if err := json.Unmarshal(hit2, &hit); err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.Job.ID != sub.Job.ID || hit.Job.State != api.JobDone {
		t.Fatalf("fast-path response incoherent: %+v", hit)
	}

	// A different body that normalizes to the same spec misses the memo
	// but must still hit the engine's cache — correctness never depends
	// on a memo hit.
	variant := `{"kind":"estimate","estimate":{"seed":11,"trials":4,"p":0.7,"graph":{"family":"hypercube","n":6}}}`
	codeV, hitV := postRaw(t, ts.URL, variant)
	var subV api.SubmitResponse
	if err := json.Unmarshal(hitV, &subV); err != nil {
		t.Fatal(err)
	}
	if codeV != http.StatusOK || !subV.Cached || subV.Job.Key != sub.Job.Key {
		t.Fatalf("normalization-variant body: status %d, %+v", codeV, subV)
	}

	// All three cache hits must be on the counter, and the memo must
	// not have swallowed the invalid-body path.
	text := scrape(t, ts.URL)
	wantLine(t, text, `faultroute_jobs_submitted_total{outcome="cached"} 3`)
	if code, _ := postRaw(t, ts.URL, `{"kind":"nope"}`); code != http.StatusBadRequest {
		t.Fatalf("invalid submit after memoization: status %d, want 400", code)
	}
}

// postDecode submits a raw body and decodes the response.
func postDecode(t *testing.T, url, body string) (int, api.SubmitResponse) {
	t.Helper()
	code, raw := postRaw(t, url, body)
	var sub api.SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatalf("decoding submit response %q: %v", raw, err)
	}
	return code, sub
}

func TestEvictedResultIsRecomputedNotInlined(t *testing.T) {
	// The store holds either result but not both, so computing B evicts
	// A, whose memo entry is already frozen. A's next submission must
	// miss the store Get, carry no result, and recompute A's bytes.
	a := `{"kind":"estimate","estimate":{"graph":{"family":"hypercube","n":6},"p":0.7,"trials":4,"seed":21}}`
	b := `{"kind":"estimate","estimate":{"graph":{"family":"hypercube","n":6},"p":0.7,"trials":4,"seed":22}}`
	local := func(body string) api.Result {
		var req api.Request
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		res, err := faultroute.NewLocal().Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	wantA, wantB := local(a), local(b)
	costA, costB := int64(len(wantA.Key)+len(wantA.Body)), int64(len(wantB.Key)+len(wantB.Body))
	store := cache.NewBounded(costA + costB - 1)
	svc := serve.New(serve.Options{Executors: 1, Store: store})
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	compute := func(body string) api.SubmitResponse {
		t.Helper()
		code, sub := postDecode(t, ts.URL, body)
		if code != http.StatusAccepted || sub.Result != nil {
			t.Fatalf("submit: status %d, result %q; want a fresh job without a result", code, sub.Result)
		}
		if st := awaitJob(t, ts.URL, sub.Job.ID); st.State != api.JobDone {
			t.Fatalf("job ended %s: %s", st.State, st.Error)
		}
		return sub
	}
	first := compute(a)
	// Freeze A's memo entry: this cached answer carries the result.
	if _, hit := postDecode(t, ts.URL, a); !bytes.Equal(append(hit.Result, '\n'), wantA.Body) {
		t.Fatalf("cached A carries %q, want Local's bytes", hit.Result)
	}
	compute(b)
	if store.Has(wantA.Key) {
		t.Fatal("A was not evicted, so the test checks nothing")
	}

	again := compute(a)
	if again.Job.ID == first.Job.ID {
		t.Fatalf("resubmission after eviction reused job %s instead of recomputing", first.Job.ID)
	}
	if got := fetchResult(t, ts.URL, wantA.Key); !bytes.Equal(got, wantA.Body) {
		t.Fatalf("recomputed A differs from Local:\n got %s\nwant %s", got, wantA.Body)
	}
}

// TestCachedSubmitCarriesResultBytes pins the inline result of a cached
// submission for every result shape, on both cached paths: the second
// POST of a body goes through the engine (and freezes the response),
// the third through the memo. Each must answer done with a result that,
// plus the canonical "\n", is exactly what GET /v1/results serves and
// Local computes.
func TestCachedSubmitCarriesResultBytes(t *testing.T) {
	ts := newTestServer(t, 2)
	estimate := func() *api.EstimateSpec {
		return &api.EstimateSpec{Graph: api.GraphSpec{Family: "hypercube", N: 6}, P: 0.6, Trials: 10, Seed: 5}
	}
	shard := estimate()
	shard.Shard = &api.ShardSpec{Offset: 4, Count: 6}
	percolation := func(clusters bool) *api.PercolationSpec {
		return &api.PercolationSpec{Graph: api.GraphSpec{Family: "mesh", Side: 8}, Ps: []float64{0.3, 0.7}, Trials: 3, Seed: 1, Clusters: clusters}
	}
	for _, tc := range []struct {
		name string
		req  api.Request
	}{
		{"estimate", api.Request{Kind: api.KindEstimate, Estimate: estimate()}},
		{"shard", api.Request{Kind: api.KindEstimate, Estimate: shard}},
		{"experiment-E1", api.Request{Kind: api.KindExperiment, Experiment: &api.ExperimentSpec{ID: "E1", Seed: 1, Scale: "quick"}}},
		{"percolation-giant", api.Request{Kind: api.KindPercolation, Percolation: percolation(false)}},
		{"percolation-clusters", api.Request{Kind: api.KindPercolation, Percolation: percolation(true)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := faultroute.NewLocal().Do(context.Background(), tc.req)
			if err != nil {
				t.Fatal(err)
			}
			payload, err := json.Marshal(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			body := string(payload)
			code, sub := postDecode(t, ts.URL, body)
			if code != http.StatusAccepted || sub.Result != nil {
				t.Fatalf("fresh submit: status %d, result %q; want 202 and no result", code, sub.Result)
			}
			if st := awaitJob(t, ts.URL, sub.Job.ID); st.State != api.JobDone {
				t.Fatalf("job ended %s: %s", st.State, st.Error)
			}
			stored := fetchResult(t, ts.URL, sub.Job.Key)
			if sub.Job.Key != want.Key || !bytes.Equal(stored, want.Body) {
				t.Fatalf("stored result differs from Local:\nserved %s %s\nlocal  %s %s", sub.Job.Key, stored, want.Key, want.Body)
			}
			for _, path := range []string{"engine", "memo"} {
				code, hit := postDecode(t, ts.URL, body)
				if code != http.StatusOK || !hit.Cached || hit.Job.State != api.JobDone {
					t.Fatalf("%s path: status %d cached=%v state %s, want 200 cached done", path, code, hit.Cached, hit.Job.State)
				}
				if got := append(hit.Result, '\n'); !bytes.Equal(got, stored) {
					t.Fatalf("%s path: result plus newline differs from GET /v1/results:\ninline %s\nstored %s", path, got, stored)
				}
			}
		})
	}
}

func TestCoalescedSubmitCarriesNoResult(t *testing.T) {
	// The delay holds the job in flight for longer than the test runs;
	// Close cancels it.
	svc := serve.New(serve.Options{Executors: 1, TaskDelay: time.Minute})
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	body := `{"kind":"estimate","estimate":{"graph":{"family":"hypercube","n":6},"p":0.7,"trials":4,"seed":11}}`
	if code, _ := postDecode(t, ts.URL, body); code != http.StatusAccepted {
		t.Fatalf("fresh submit: status %d, want 202", code)
	}
	code, sub := postDecode(t, ts.URL, body)
	if code != http.StatusOK || !sub.Coalesced || sub.Result != nil {
		t.Fatalf("in-flight resubmit: status %d coalesced=%v result %q; want 200, coalesced, no result", code, sub.Coalesced, sub.Result)
	}
}

// TestSubmitMemoDistinctBodies pins that near-identical bodies (one
// field apart) stay distinct jobs: the memo keys on exact bytes.
func TestSubmitMemoDistinctBodies(t *testing.T) {
	ts := newTestServer(t, 1)
	a := `{"kind":"estimate","estimate":{"graph":{"family":"hypercube","n":6},"p":0.7,"trials":4,"seed":1}}`
	b := `{"kind":"estimate","estimate":{"graph":{"family":"hypercube","n":6},"p":0.7,"trials":4,"seed":2}}`
	_, ra := postRaw(t, ts.URL, a)
	_, rb := postRaw(t, ts.URL, b)
	var sa, sb api.SubmitResponse
	if err := json.Unmarshal(ra, &sa); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rb, &sb); err != nil {
		t.Fatal(err)
	}
	if sa.Job.Key == sb.Job.Key {
		t.Fatalf("distinct seeds produced one key %s", sa.Job.Key)
	}
	awaitJob(t, ts.URL, sa.Job.ID)
	awaitJob(t, ts.URL, sb.Job.ID)
	if _, hit := postRaw(t, ts.URL, a); !bytes.Contains(hit, []byte(sa.Job.Key)) {
		t.Fatalf("resubmit of a returned someone else's job: %s", hit)
	}
	if _, hit := postRaw(t, ts.URL, b); !bytes.Contains(hit, []byte(sb.Job.Key)) {
		t.Fatalf("resubmit of b returned someone else's job: %s", hit)
	}
}
