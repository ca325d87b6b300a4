package client_test

// Request counts of Do: a cached submission carries its result bytes,
// so a repeated Do is one POST; a fresh job is followed on the
// submit's own event stream, which carries the result, so a fresh Do is
// one POST too. A daemon that predates the streamed submit, the stream's
// result event or the inline result still gets the requests it needs:
// resubmissions until an answer carries the job to its end, and the
// result GET.

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"faultroute"
	"faultroute/api"
	"faultroute/client"
	"faultroute/serve"
)

// inlineFixture is a small estimate: fast to compute, a result of a few
// hundred bytes.
func inlineFixture(seed uint64) api.Request {
	return api.Request{Kind: api.KindEstimate, Estimate: &api.EstimateSpec{
		Graph: api.GraphSpec{Family: "hypercube", N: 8},
		P:     0.7, Trials: 16, Seed: seed,
	}}
}

// requestTally is a snapshot of a transportCounts: submits, event
// streams, status fetches and result fetches.
type requestTally struct{ submits, events, status, results int64 }

func tally(tc *transportCounts) requestTally {
	return requestTally{tc.submits.Load(), tc.events.Load(), tc.status.Load(), tc.results.Load()}
}

func (a requestTally) minus(b requestTally) requestTally {
	return requestTally{a.submits - b.submits, a.events - b.events, a.status - b.status, a.results - b.results}
}

// doLocalBytes runs req through c and fails unless the body is Local's.
func doLocalBytes(t *testing.T, c *client.Client, req api.Request) {
	t.Helper()
	ctx := context.Background()
	want, err := faultroute.NewLocal().Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != want.Key || !bytes.Equal(got.Body, want.Body) {
		t.Fatalf("Do returned other bytes than Local:\n got %s %s\nwant %s %s", got.Key, got.Body, want.Key, want.Body)
	}
}

func TestRepeatedDoIsOneRoundTrip(t *testing.T) {
	for _, jsonSubmits := range []bool{false, true} {
		counts := &transportCounts{jsonSubmits: jsonSubmits}
		c := newCountingService(t, counts)
		req := inlineFixture(1)
		doLocalBytes(t, c, req)
		// The second Do is the body's first duplicate (the engine path),
		// the third takes the memo path: one POST each, nothing else.
		for i := 0; i < 2; i++ {
			before := tally(counts)
			doLocalBytes(t, c, req)
			if got, want := tally(counts).minus(before), (requestTally{submits: 1}); got != want {
				t.Errorf("jsonSubmits=%v, repeat %d: requests %+v, want %+v", jsonSubmits, i+1, got, want)
			}
		}
	}
}

func TestFreshDoOverSSEFetchesNoStatus(t *testing.T) {
	// The delay keeps the job running after it is submitted, so the
	// client must follow it. The submit's own stream carries the result,
	// so the Do is one request. A daemon that answers the submit with
	// JSON, as one that predates the streamed submit, gets resubmissions
	// until one is answered with the result, and nothing else; a stream
	// without the result event, as after an eviction, gets the result
	// GET.
	for _, tc := range []struct {
		name        string
		jsonSubmits bool
		noResult    bool
		want        requestTally // its submits are a minimum for a JSON submit
	}{
		{"streamed submit", false, false, requestTally{submits: 1}},
		{"JSON submit", true, false, requestTally{submits: 2}},
		{"streamed submit, no result event", false, true, requestTally{submits: 1, results: 1}},
	} {
		counts := &transportCounts{taskDelay: 200 * time.Millisecond, jsonSubmits: tc.jsonSubmits, noResult: tc.noResult}
		c := newCountingService(t, counts)
		doLocalBytes(t, c, inlineFixture(2))
		got := tally(counts)
		if tc.jsonSubmits && got.submits > tc.want.submits {
			got.submits = tc.want.submits // how many resubmissions depends on timing
		}
		if got != tc.want {
			t.Errorf("%s: requests %+v, want %+v", tc.name, tally(counts), tc.want)
		}
	}
}

// withoutResult answers like a daemon that predates
// api.SubmitResponse.Result: every submit response is re-encoded
// without the field.
type withoutResult struct{ next http.Handler }

func (h withoutResult) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		h.next.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	h.next.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	var sub api.SubmitResponse
	if rec.Code < 300 && json.Unmarshal(body, &sub) == nil {
		sub.Result = nil
		body, _ = json.Marshal(sub)
	}
	maps.Copy(w.Header(), rec.Header())
	w.Header().Del("Content-Length")
	w.WriteHeader(rec.Code)
	w.Write(body)
}

func TestDoWithoutInlineResultFetchesIt(t *testing.T) {
	svc := serve.New(serve.Options{Workers: 1})
	t.Cleanup(svc.Close)
	counts := &transportCounts{next: withoutResult{svc.Handler()}}
	ts := httptest.NewServer(counts)
	t.Cleanup(ts.Close)
	c := client.New(ts.URL)
	req := inlineFixture(4)
	doLocalBytes(t, c, req)
	before := tally(counts)
	doLocalBytes(t, c, req)
	if got, want := tally(counts).minus(before), (requestTally{submits: 1, results: 1}); got != want {
		t.Errorf("cached Do without an inline result: requests %+v, want %+v", got, want)
	}
}
