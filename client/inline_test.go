package client_test

// Request counts of Do: a cached submission carries its result bytes,
// so a repeated Do is one POST; a fresh job is followed on the
// submit's own event stream, which carries the result or the job's
// error, so a fresh Do is one POST too, whatever the store keeps. A
// daemon that predates the streamed submit gets resubmissions until an
// answer carries the job to its end; a done answer without its result
// bytes is an error. Do sends nothing but POST /v1/jobs.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"faultroute"
	"faultroute/api"
	"faultroute/client"
	"faultroute/internal/cache"
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

// requestTally is a snapshot of a transportCounts: submits, status
// fetches and result fetches.
type requestTally struct{ submits, status, results int64 }

func tally(tc *transportCounts) requestTally {
	return requestTally{tc.submits.Load(), tc.status.Load(), tc.results.Load()}
}

func (a requestTally) minus(b requestTally) requestTally {
	return requestTally{a.submits - b.submits, a.status - b.status, a.results - b.results}
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
	// until one is answered with the result, and nothing else.
	for _, tc := range []struct {
		name        string
		jsonSubmits bool
		want        requestTally // its submits are a minimum for a JSON submit
	}{
		{"streamed submit", false, requestTally{submits: 1}},
		{"JSON submit", true, requestTally{submits: 2}},
	} {
		counts := &transportCounts{taskDelay: 200 * time.Millisecond, jsonSubmits: tc.jsonSubmits}
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

// TestDoWithoutInlineResultIsAnError: a done answer that carries no
// result bytes, from a daemon that predates them, is an error naming
// the job after one request, and the client reads nothing else. The
// answer is a cached submit's JSON without its result field, or a
// fresh job's event stream without its result event.
func TestDoWithoutInlineResultIsAnError(t *testing.T) {
	svc := serve.New(serve.Options{Workers: 1})
	t.Cleanup(svc.Close)
	cachedCounts := &transportCounts{next: withoutResult{svc.Handler()}}
	ts := httptest.NewServer(cachedCounts)
	t.Cleanup(ts.Close)
	cachedClient := client.New(ts.URL)
	req := inlineFixture(4)
	doLocalBytes(t, cachedClient, req) // the fresh job's stream carries the result

	streamCounts := &transportCounts{taskDelay: 50 * time.Millisecond, noResult: true}
	streamClient := newCountingService(t, streamCounts)

	for _, tc := range []struct {
		name   string
		counts *transportCounts
		c      *client.Client
	}{{"cached JSON answer", cachedCounts, cachedClient}, {"event stream", streamCounts, streamClient}} {
		before := tally(tc.counts)
		var id string
		_, err := tc.c.WatchJob(context.Background(), req, func(sub api.SubmitResponse) { id = sub.Job.ID }, nil)
		if err == nil || id == "" || !strings.Contains(err.Error(), "job "+id+" ") {
			t.Errorf("%s without a result: error %v, want one naming job %q", tc.name, err, id)
		}
		if got, want := tally(tc.counts).minus(before), (requestTally{submits: 1}); got != want {
			t.Errorf("%s without a result: requests %+v, want %+v", tc.name, got, want)
		}
	}
}

// TestDoAndWatchOverAStoreThatKeepsNothing serves a store whose budget
// fits no result, so every Put is refused: a fresh job's bytes reach
// its waiter from the job itself, on the one request that waited for
// it.
func TestDoAndWatchOverAStoreThatKeepsNothing(t *testing.T) {
	for i, watch := range []bool{false, true} {
		// The delay keeps the job running past its submit response, so
		// the answer is the job's event stream.
		counts := &transportCounts{taskDelay: 20 * time.Millisecond, store: cache.NewBounded(1)}
		c := newCountingService(t, counts)
		req := inlineFixture(uint64(30 + i))
		if !watch {
			doLocalBytes(t, c, req)
		} else {
			want, err := faultroute.NewLocal().Do(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			got, events := collectWatch(t, c, req)
			checkSequence(t, "Watch", events)
			if got.Key != want.Key || !bytes.Equal(got.Body, want.Body) {
				t.Fatalf("Watch returned other bytes than Local:\n got %s %s\nwant %s %s", got.Key, got.Body, want.Key, want.Body)
			}
		}
		if got, want := tally(counts), (requestTally{submits: 1}); got != want {
			t.Errorf("watch=%v: requests %+v, want %+v", watch, got, want)
		}
		if n := counts.store.Len(); n != 0 {
			t.Fatalf("test setup: the store kept %d results", n)
		}
	}
}

// TestFailedJobErrorInOneRequest runs an estimate whose conditioning
// fails: the submit's own event stream ends with the failed job's
// error, so Do and Watch return a *client.JobError carrying Local's
// error message after one request, and Watch's last event carries it
// too.
func TestFailedJobErrorInOneRequest(t *testing.T) {
	req := api.Request{Kind: api.KindEstimate, Estimate: &api.EstimateSpec{
		Graph: api.GraphSpec{Family: "hypercube", N: 6},
		P:     0, Trials: 4, MaxTries: 1, Seed: 1,
	}}
	_, localErr := faultroute.NewLocal().Do(context.Background(), req)
	if localErr == nil {
		t.Fatal("test setup: the estimate does not fail in-process")
	}
	for _, watch := range []bool{false, true} {
		// The delay keeps the job running past its submit response, so
		// the answer is the job's event stream.
		counts := &transportCounts{taskDelay: 20 * time.Millisecond}
		c := newCountingService(t, counts)
		var last api.Event
		var err error
		if watch {
			_, err = c.Watch(context.Background(), req, func(ev api.Event) { last = ev })
		} else {
			_, err = c.Do(context.Background(), req)
		}
		var je *client.JobError
		if !errors.As(err, &je) {
			t.Fatalf("watch=%v: error %v, want a *client.JobError", watch, err)
		}
		if je.Status.State != api.JobFailed || je.Status.ID == "" || !strings.Contains(je.Status.Error, localErr.Error()) {
			t.Errorf("watch=%v: job error status %+v, want a failed job with the error %q", watch, je.Status, localErr)
		}
		if watch && (last.State != api.JobFailed || last.Error != je.Status.Error) {
			t.Errorf("Watch's last event %+v, want the failed job's error", last)
		}
		if got, want := tally(counts), (requestTally{submits: 1}); got != want {
			t.Errorf("watch=%v: requests %+v, want %+v", watch, got, want)
		}
	}
}
