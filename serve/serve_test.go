package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"faultroute/api"
	"faultroute/internal/exp"
	"faultroute/serve"
)

// newTestServer mounts the API on an httptest server with a small
// engine; workers pins the default per-job parallelism so tests can
// compare runs at different counts.
func newTestServer(t *testing.T, workers int) *httptest.Server {
	t.Helper()
	svc := serve.New(serve.Options{Workers: workers, Executors: 2, QueueDepth: 16})
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// doJSON issues a request and decodes the JSON response into out (when
// non-nil), returning the status code.
func doJSON(t *testing.T, method, url string, body string, out any) int {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %s %s response %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

// awaitJob polls GET /v1/jobs/{id} until the job is terminal.
func awaitJob(t *testing.T, base, id string) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st api.JobStatus
		if code := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, "", &st); code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s (%d/%d)", id, st.State, st.Done, st.Total)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fetchResult returns the raw cached bytes for a key.
func fetchResult(t *testing.T, base, key string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/results/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result %s: status %d", key, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSubmitPollFetchEstimate(t *testing.T) {
	ts := newTestServer(t, 2)
	body := `{"kind":"estimate","estimate":{
		"graph":{"family":"hypercube","n":6},
		"p":0.7,"trials":5,"seed":1}}`

	var sub api.SubmitResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	if sub.Cached || sub.Coalesced {
		t.Fatalf("first submission reported cached=%v coalesced=%v", sub.Cached, sub.Coalesced)
	}
	if sub.Job.Total != 5 {
		t.Fatalf("total = %d, want 5", sub.Job.Total)
	}
	st := awaitJob(t, ts.URL, sub.Job.ID)
	if st.State != api.JobDone {
		t.Fatalf("job finished %s (%s)", st.State, st.Error)
	}
	if st.Done != 5 {
		t.Fatalf("progress counter = %d, want 5", st.Done)
	}
	var res api.EstimateResult
	if err := json.Unmarshal(fetchResult(t, ts.URL, st.Key), &res); err != nil {
		t.Fatal(err)
	}
	if res.Trials+res.Censored == 0 {
		t.Fatalf("empty result: %+v", res)
	}
}

func TestResubmitHitsCacheAndNormalizationCoalesces(t *testing.T) {
	ts := newTestServer(t, 1)
	// Sparse spec: router, mode, dst, maxTries all defaulted.
	sparse := `{"kind":"estimate","estimate":{
		"graph":{"family":"hypercube","n":6},
		"p":0.7,"trials":4,"seed":9}}`
	// The same job written out in full, with a different worker hint —
	// normalization must map both to one cache key.
	explicit := `{"kind":"estimate","workers":3,"estimate":{
		"graph":{"family":"hypercube","n":6},
		"p":0.7,"router":"path-follow","mode":"local","src":0,"dst":63,
		"trials":4,"maxTries":100,"seed":9}}`

	var first api.SubmitResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", sparse, &first); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	awaitJob(t, ts.URL, first.Job.ID)

	var second api.SubmitResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", explicit, &second); code != http.StatusOK {
		t.Fatalf("resubmit status %d, want 200", code)
	}
	if !second.Cached {
		t.Fatalf("resubmission not served from cache: %+v", second)
	}
	if second.Job.Key != first.Job.Key {
		t.Fatalf("normalization split the cache: %s vs %s", second.Job.Key, first.Job.Key)
	}
	if second.Job.ID != first.Job.ID {
		t.Fatalf("resubmission got a new job: %s vs %s", second.Job.ID, first.Job.ID)
	}
}

func TestExperimentEndToEndByteIdentical(t *testing.T) {
	// The acceptance path: E1 through the service at one worker count
	// must serve bytes identical to a direct engine run at another —
	// the same canonical encoding routebench -format json emits.
	ts := newTestServer(t, 3)
	var sub api.SubmitResponse
	body := `{"kind":"experiment","experiment":{"id":"E1"}}`
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	st := awaitJob(t, ts.URL, sub.Job.ID)
	if st.State != api.JobDone {
		t.Fatalf("E1 job %s: %s", st.State, st.Error)
	}
	if st.Done == 0 {
		t.Fatal("experiment job reported no trial progress")
	}
	served := fetchResult(t, ts.URL, st.Key)

	e1, err := exp.ByID("E1")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e1.Run(exp.Config{Seed: 1, Scale: exp.ScaleQuick, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if err := tbl.RenderJSON(&direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, direct.Bytes()) {
		t.Fatalf("served E1 result differs from direct run:\nserved: %s\ndirect: %s", served, direct.Bytes())
	}

	// Resubmission (different worker hint) must come straight from cache.
	var again api.SubmitResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", `{"kind":"experiment","workers":1,"experiment":{"id":"E1","seed":1,"scale":"quick"}}`, &again); code != http.StatusOK {
		t.Fatalf("resubmit status %d", code)
	}
	if !again.Cached || again.Job.Key != st.Key {
		t.Fatalf("resubmission missed the cache: %+v", again)
	}
}

func TestPercolationJob(t *testing.T) {
	ts := newTestServer(t, 2)
	body := `{"kind":"percolation","percolation":{
		"graph":{"family":"mesh","side":8},
		"ps":[0.3,0.7],"trials":3}}`
	var sub api.SubmitResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if sub.Job.Total != 6 {
		t.Fatalf("total = %d, want 2 ps * 3 trials", sub.Job.Total)
	}
	st := awaitJob(t, ts.URL, sub.Job.ID)
	if st.State != api.JobDone {
		t.Fatalf("job %s: %s", st.State, st.Error)
	}
	var res api.GiantResult
	if err := json.Unmarshal(fetchResult(t, ts.URL, st.Key), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0].P != 0.3 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	if res.Rows[0].GiantFraction > res.Rows[1].GiantFraction {
		t.Fatalf("giant fraction not monotone in p: %+v", res.Rows)
	}
}

func TestExperimentsRegistry(t *testing.T) {
	ts := newTestServer(t, 1)
	var reg api.ExperimentList
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/experiments", "", &reg); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(reg.Experiments) != 21 {
		t.Fatalf("registry lists %d experiments, want 21", len(reg.Experiments))
	}
	if reg.Experiments[0].ID != "E1" || reg.Experiments[20].ID != "E21" {
		t.Fatalf("registry order wrong: %s .. %s", reg.Experiments[0].ID, reg.Experiments[20].ID)
	}
	for _, e := range reg.Experiments {
		if e.Title == "" || e.Claim == "" || len(e.Params) == 0 {
			t.Fatalf("incomplete registry entry: %+v", e)
		}
	}
}

func TestCancelViaAPI(t *testing.T) {
	ts := newTestServer(t, 1)
	// A full-scale E2 is big enough to still be running when we cancel.
	body := `{"kind":"experiment","experiment":{"id":"E2","scale":"full"}}`
	var sub api.SubmitResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	var st api.JobStatus
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+sub.Job.ID, "", &st); code != http.StatusOK {
		t.Fatalf("cancel status %d", code)
	}
	final := awaitJob(t, ts.URL, sub.Job.ID)
	if final.State != api.JobCanceled {
		t.Fatalf("state = %s, want canceled", final.State)
	}
	// A canceled job leaves no result behind.
	resp, err := http.Get(ts.URL + "/v1/results/" + sub.Job.Key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("result after cancel: status %d, want 404", resp.StatusCode)
	}
}

func TestCancelFinishedJobConflicts(t *testing.T) {
	// DELETE on a job already in a terminal state must report 409 with a
	// JSON error body — the cancel changed nothing — not silently succeed.
	ts := newTestServer(t, 1)
	body := `{"kind":"estimate","estimate":{
		"graph":{"family":"hypercube","n":5},
		"p":0.8,"trials":2,"seed":3}}`
	var sub api.SubmitResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	st := awaitJob(t, ts.URL, sub.Job.ID)
	if st.State != api.JobDone {
		t.Fatalf("job finished %s (%s)", st.State, st.Error)
	}
	var e api.ErrorBody
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+sub.Job.ID, "", &e); code != http.StatusConflict {
		t.Fatalf("cancel of finished job: status %d, want 409", code)
	}
	if !strings.Contains(e.Error, "already") {
		t.Fatalf("409 body %q does not explain the conflict", e.Error)
	}
	// The result must still be served after the rejected cancel.
	if data := fetchResult(t, ts.URL, st.Key); len(data) == 0 {
		t.Fatal("result vanished after rejected cancel")
	}
	// Canceling a canceled job is a conflict too.
	slow := `{"kind":"experiment","experiment":{"id":"E2","scale":"full"}}`
	var sub2 api.SubmitResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", slow, &sub2); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+sub2.Job.ID, "", nil); code != http.StatusOK {
		t.Fatalf("first cancel status %d", code)
	}
	awaitJob(t, ts.URL, sub2.Job.ID)
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+sub2.Job.ID, "", &e); code != http.StatusConflict {
		t.Fatalf("second cancel: status %d, want 409", code)
	}
}

func TestBadSubmissions(t *testing.T) {
	ts := newTestServer(t, 1)
	cases := []struct {
		name, body string
	}{
		{"bad json", `{`},
		{"unknown kind", `{"kind":"teleport"}`},
		{"missing spec", `{"kind":"estimate"}`},
		{"unknown field", `{"kind":"estimate","estimate":{"graph":{"family":"hypercube","n":4},"p":0.5,"trials":1,"bogus":true}}`},
		{"unknown family", `{"kind":"estimate","estimate":{"graph":{"family":"moebius","n":4},"p":0.5,"trials":1}}`},
		{"missing n", `{"kind":"estimate","estimate":{"graph":{"family":"hypercube"},"p":0.5,"trials":1}}`},
		{"bad p", `{"kind":"estimate","estimate":{"graph":{"family":"hypercube","n":4},"p":1.5,"trials":1}}`},
		{"zero trials", `{"kind":"estimate","estimate":{"graph":{"family":"hypercube","n":4},"p":0.5}}`},
		{"dst out of range", `{"kind":"estimate","estimate":{"graph":{"family":"hypercube","n":4},"p":0.5,"trials":1,"dst":16}}`},
		{"unknown router", `{"kind":"estimate","estimate":{"graph":{"family":"hypercube","n":4},"p":0.5,"trials":1,"router":"warp"}}`},
		{"unknown experiment", `{"kind":"experiment","experiment":{"id":"E99"}}`},
		{"bad scale", `{"kind":"experiment","experiment":{"id":"E1","scale":"galactic"}}`},
		{"empty ps", `{"kind":"percolation","percolation":{"graph":{"family":"ring","n":10},"trials":3}}`},
	}
	for _, tc := range cases {
		var e api.ErrorBody
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", tc.body, &e)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
		if e.Error == "" {
			t.Errorf("%s: no error message", tc.name)
		}
	}
	// Unknown job and result lookups are 404s.
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/j999", "", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/results/deadbeef", "", nil); code != http.StatusNotFound {
		t.Errorf("unknown result: status %d, want 404", code)
	}
}

// TestOversizedSubmitGets413 pins the submit body cap: a body one byte
// over 1 MiB is refused with 413 and a JSON error, counted as an
// invalid submission, and leaves the service ready for the next one. A
// valid spec padded to exactly 1 MiB is still accepted.
func TestOversizedSubmitGets413(t *testing.T) {
	ts := newTestServer(t, 1)
	const limit = 1 << 20
	spec := `{"kind":"estimate","estimate":{"graph":{"family":"hypercube","n":4},"p":0.9,"trials":2,"seed":1}}`
	var e api.ErrorBody
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", spec+strings.Repeat(" ", limit+1-len(spec)), &e)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: status %d, want 413", code)
	}
	if e.Error == "" {
		t.Fatal("oversized submit: no error message")
	}
	var sub api.SubmitResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", spec+strings.Repeat(" ", limit-len(spec)), &sub); code != http.StatusAccepted {
		t.Fatalf("submit at exactly the cap: status %d, want 202", code)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", spec, &sub); code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("submit after the 413: status %d", code)
	}
	if st := awaitJob(t, ts.URL, sub.Job.ID); st.State != api.JobDone {
		t.Fatalf("job after the 413: %s (%s)", st.State, st.Error)
	}
	text := scrape(t, ts.URL)
	wantLine(t, text, `faultroute_jobs_submitted_total{outcome="invalid"} 1`)
	wantLine(t, text, `faultroute_http_requests_total{route="POST /v1/jobs",code="413"} 1`)
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, 1)
	var h api.Health
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/healthz", "", &h); code != http.StatusOK || !h.OK {
		t.Fatalf("healthz = %+v (status %d)", h, code)
	}
}

func TestEstimateWorkerCountInvariance(t *testing.T) {
	// Two servers with different default worker counts must cache
	// byte-identical estimate results for the same spec.
	spec := `{"kind":"estimate","estimate":{
		"graph":{"family":"mesh","side":6},
		"p":0.8,"trials":6,"seed":4}}`
	var results [][]byte
	for _, workers := range []int{1, 4} {
		ts := newTestServer(t, workers)
		var sub api.SubmitResponse
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", spec, &sub); code != http.StatusAccepted {
			t.Fatalf("workers=%d: submit status %d", workers, code)
		}
		st := awaitJob(t, ts.URL, sub.Job.ID)
		if st.State != api.JobDone {
			t.Fatalf("workers=%d: job %s (%s)", workers, st.State, st.Error)
		}
		results = append(results, fetchResult(t, ts.URL, st.Key))
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Fatalf("estimate results differ across worker counts:\n1: %s\n4: %s", results[0], results[1])
	}
}

func TestQueueFullGets503(t *testing.T) {
	svc := serve.New(serve.Options{Workers: 1, Executors: 1, QueueDepth: 1})
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	// Saturate: executor busy + queue of 1. Full-scale E2 runs long
	// enough to hold the executor for the duration of the test.
	submit := func(id string) int {
		var sub api.SubmitResponse
		return doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
			fmt.Sprintf(`{"kind":"experiment","experiment":{"id":"%s","scale":"full"}}`, id), &sub)
	}
	if code := submit("E2"); code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	// Fill the queue; retry while the executor races us to drain it.
	deadline := time.Now().Add(10 * time.Second)
	for submit("E3") != http.StatusAccepted {
		if time.Now().After(deadline) {
			t.Fatal("queue never accepted the second job")
		}
	}
	code := submit("E4")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: status %d, want 503", code)
	}
}
