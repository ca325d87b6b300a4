package serve_test

// Tests for GET /v1/metrics: a scripted job mix with exactly known
// cache/submission/execution counts asserted line-by-line against the
// Prometheus text scrape, and a stress test that hammers the endpoint
// while jobs run so `go test -race` patrols every counter and gauge.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"faultroute/api"
	"faultroute/serve"
)

// scrape fetches /v1/metrics and returns the text exposition.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// wantLine asserts one exact sample line in the exposition.
func wantLine(t *testing.T, exposition, line string) {
	t.Helper()
	for _, got := range strings.Split(exposition, "\n") {
		if got == line {
			return
		}
	}
	t.Errorf("metrics scrape is missing the line %q", line)
}

// wantSeries asserts a sample for the series exists, with any value.
func wantSeries(t *testing.T, exposition, series string) {
	t.Helper()
	for _, got := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(got, series+" ") || strings.HasPrefix(got, series+"{") {
			return
		}
	}
	t.Errorf("metrics scrape is missing the series %q", series)
}

// TestMetricsScrapeAfterScriptedMix drives a job mix whose cache and
// submission outcomes are exactly determined, then asserts the scrape
// line-by-line. The engine's submission path checks in-flight jobs and
// finished jobs before the store, so store misses come only from fresh
// submissions and store hits only from GET /v1/results fetches and
// cached submissions, which read the bytes they carry — making every
// count below deterministic.
func TestMetricsScrapeAfterScriptedMix(t *testing.T) {
	svc := serve.New(serve.Options{Workers: 1, Executors: 1, QueueDepth: 16})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	estimateA := `{"kind":"estimate","estimate":{
		"graph":{"family":"hypercube","n":6},
		"p":0.7,"trials":4,"seed":11}}`
	estimateC := `{"kind":"estimate","estimate":{
		"graph":{"family":"hypercube","n":6},
		"p":0.7,"trials":4,"seed":12}}`
	longE2 := `{"kind":"experiment","experiment":{"id":"E2","scale":"full"}}`

	// Fresh submission A: store miss #1.
	var subA api.SubmitResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", estimateA, &subA); code != http.StatusAccepted {
		t.Fatalf("submit A: status %d", code)
	}
	if st := awaitJob(t, ts.URL, subA.Job.ID); st.State != api.JobDone {
		t.Fatalf("job A finished %s (%s)", st.State, st.Error)
	}
	// Result fetch A: store hit #1.
	fetchResult(t, ts.URL, subA.Job.Key)
	// Resubmit A: answered from the finished job, whose stored bytes
	// the response carries: store hit #2.
	var again api.SubmitResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", estimateA, &again); code != http.StatusOK || !again.Cached {
		t.Fatalf("resubmit A: status %d cached=%v, want 200 cached", code, again.Cached)
	}

	// Long experiment occupies the single executor: store miss #2.
	var subLong api.SubmitResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", longE2, &subLong); code != http.StatusAccepted {
		t.Fatalf("submit E2: status %d", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st api.JobStatus
		doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+subLong.Job.ID, "", &st)
		if st.State == api.JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("E2 never started running (state %s)", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Fresh submission C queues behind it: store miss #3.
	var subC api.SubmitResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", estimateC, &subC); code != http.StatusAccepted {
		t.Fatalf("submit C: status %d", code)
	}
	// Resubmit C while in flight: coalesced, no store lookup.
	var coal api.SubmitResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", estimateC, &coal); code != http.StatusOK || !coal.Coalesced {
		t.Fatalf("resubmit C: status %d coalesced=%v, want 200 coalesced", code, coal.Coalesced)
	}

	// Cancel the running experiment; C then executes and finishes.
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+subLong.Job.ID, "", nil); code != http.StatusOK {
		t.Fatalf("cancel E2: status %d", code)
	}
	if st := awaitJob(t, ts.URL, subC.Job.ID); st.State != api.JobDone {
		t.Fatalf("job C finished %s (%s)", st.State, st.Error)
	}
	// Result fetch C: store hit #3. (With one executor, C ran only
	// after the canceled experiment's task returned, so its latency
	// sample is recorded by now too.)
	fetchResult(t, ts.URL, subC.Job.Key)

	text := scrape(t, ts.URL)

	wantLine(t, text, `faultroute_cache_hits_total 3`)
	wantLine(t, text, `faultroute_cache_misses_total 3`)
	wantLine(t, text, `faultroute_cache_results 2`)
	// The default store is memory-only, so its single tier's counters
	// mirror the store-level ones exactly. Bytes is a real value too
	// (canonical result bytes are deterministic) but pinning it would
	// couple this test to result encoding size; presence is enough.
	wantLine(t, text, `faultroute_cache_tier_entries{tier="memory"} 2`)
	wantLine(t, text, `faultroute_cache_tier_hits_total{tier="memory"} 3`)
	wantLine(t, text, `faultroute_cache_tier_misses_total{tier="memory"} 3`)
	wantLine(t, text, `faultroute_cache_tier_evictions_total{tier="memory"} 0`)
	wantSeries(t, text, `faultroute_cache_tier_bytes{tier="memory"}`)
	wantLine(t, text, `faultroute_jobs_submitted_total{outcome="fresh"} 3`)
	wantLine(t, text, `faultroute_jobs_submitted_total{outcome="cached"} 1`)
	wantLine(t, text, `faultroute_jobs_submitted_total{outcome="coalesced"} 1`)
	wantLine(t, text, `faultroute_jobs_coalesced_total 2`)
	wantLine(t, text, `faultroute_jobs_executed_total{kind="estimate",state="done"} 2`)
	wantLine(t, text, `faultroute_jobs_executed_total{kind="experiment",state="canceled"} 1`)
	wantLine(t, text, `faultroute_job_duration_seconds_count{kind="estimate"} 2`)
	wantLine(t, text, `faultroute_job_duration_seconds_count{kind="experiment"} 1`)
	wantLine(t, text, `faultroute_jobs_queue_depth 0`)
	wantLine(t, text, `faultroute_jobs_queue_capacity 16`)
	wantLine(t, text, `faultroute_jobs_executors 1`)
	wantLine(t, text, `# TYPE faultroute_job_duration_seconds histogram`)

	// All five POSTs preceded the scrape and the middleware samples
	// after the handler returns, so the request counts are exact: three
	// 202s (fresh) and two 200s (cached + coalesced).
	wantLine(t, text, `faultroute_http_requests_total{route="POST /v1/jobs",code="202"} 3`)
	wantLine(t, text, `faultroute_http_requests_total{route="POST /v1/jobs",code="200"} 2`)
	wantLine(t, text, `faultroute_http_requests_total{route="GET /v1/results/{key}",code="200"} 2`)
	wantLine(t, text, `faultroute_http_requests_total{route="DELETE /v1/jobs/{id}",code="200"} 1`)

	// Present with run-dependent values: status polling volume and the
	// instantaneous executor occupancy.
	wantSeries(t, text, `faultroute_http_requests_total{route="GET /v1/jobs/{id}",code="200"}`)
	wantSeries(t, text, `faultroute_jobs_executors_busy`)
	wantSeries(t, text, `faultroute_sse_streams_active`)
}

// TestMetricsInvalidAndRejectedCounted pins the two failure outcomes of
// the submission counter.
func TestMetricsInvalidAndRejectedCounted(t *testing.T) {
	svc := serve.New(serve.Options{Workers: 1, Executors: 1, QueueDepth: 1})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", `{"kind":"nope"}`, nil); code != http.StatusBadRequest {
		t.Fatalf("invalid submit: status %d", code)
	}
	// Saturate: one job running, one queued, the next is rejected.
	submit := func(id string) int {
		return doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
			fmt.Sprintf(`{"kind":"experiment","experiment":{"id":"%s","scale":"full"}}`, id), nil)
	}
	if code := submit("E2"); code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	if code := submit("E3"); code != http.StatusAccepted {
		t.Fatalf("second submit: status %d", code)
	}
	if code := submit("E4"); code != http.StatusServiceUnavailable {
		t.Fatalf("third submit: status %d, want 503", code)
	}

	text := scrape(t, ts.URL)
	wantLine(t, text, `faultroute_jobs_submitted_total{outcome="invalid"} 1`)
	wantLine(t, text, `faultroute_jobs_submitted_total{outcome="rejected"} 1`)
	wantLine(t, text, `faultroute_http_requests_total{route="POST /v1/jobs",code="400"} 1`)
	wantLine(t, text, `faultroute_http_requests_total{route="POST /v1/jobs",code="503"} 1`)
}

// TestMetricsScrapeUnderLoad hammers /v1/metrics from several
// goroutines while jobs submit, poll, stream and finish concurrently.
// It asserts nothing beyond well-formedness — its job is giving the
// race detector every counter, gauge and histogram mid-flight.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	svc := serve.New(serve.Options{Workers: 2, Executors: 2, QueueDepth: 64})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				// No test helpers here: t.Fatal must not run off the
				// test goroutine.
				resp, err := http.Get(ts.URL + "/v1/metrics")
				if err != nil {
					t.Errorf("scrape under load: %v", err)
					return
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("scrape under load: status %d, read error %v", resp.StatusCode, err)
					return
				}
				if !strings.Contains(string(data), "faultroute_jobs_submitted_total") {
					t.Error("scrape lost the submission counter")
					return
				}
			}
		}()
	}

	// Seed 0 normalizes to the default seed, so start at 1 to keep
	// every submission's content address distinct.
	for seed := 1; seed <= 12; seed++ {
		body := fmt.Sprintf(`{"kind":"estimate","estimate":{
			"graph":{"family":"hypercube","n":6},
			"p":0.7,"trials":6,"seed":%d}}`, seed)
		var sub api.SubmitResponse
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body, &sub); code != http.StatusAccepted {
			t.Fatalf("submit seed %d: status %d", seed, code)
		}
		if st := awaitJob(t, ts.URL, sub.Job.ID); st.State != api.JobDone {
			t.Fatalf("seed %d finished %s (%s)", seed, st.State, st.Error)
		}
	}
	close(done)
	wg.Wait()
}
