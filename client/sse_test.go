package client_test

// Transport tests for the Server-Sent-Events progress stream: the
// submit's own stream and a JSON-answered submit, followed by
// resubmitting, must deliver equivalent deduplicated, monotone event
// sequences and byte-identical results, and a stream that dies mid-job
// must be followed by resubmissions without breaking either guarantee.

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faultroute"
	"faultroute/api"
	"faultroute/client"
	"faultroute/serve"
)

// watchDelay is the task delay of the watch tests' services: it keeps
// watchFixture running past its first submission even when the host is
// busy and its timers fire late.
const watchDelay = 100 * time.Millisecond

// watchFixture is a job of many trials, so a watcher sees its progress
// counter move.
func watchFixture() api.Request {
	return api.Request{Kind: api.KindEstimate, Estimate: &api.EstimateSpec{
		Graph: api.GraphSpec{Family: "hypercube", N: 12},
		P:     0.7, Trials: 256, Seed: 5,
	}}
}

// transportCounts wraps a service handler and tallies the requests the
// client made, by route: how many submissions and result fetches it
// needed, and whether it read a job's status or subscribed to its
// events.
type transportCounts struct {
	next    http.Handler
	submits atomic.Int64 // POST /v1/jobs
	events  atomic.Int64 // GET /v1/jobs/{id}/events subscriptions
	status  atomic.Int64 // GET /v1/jobs/{id} reads
	results atomic.Int64 // GET /v1/results/{key} fetches
	// aborter, when set, wraps the response writer of every submit.
	aborter func(w http.ResponseWriter) http.ResponseWriter
	// jsonSubmits answers every submit with JSON, as a daemon that
	// predates the streamed submit, or a front end that drops Accept,
	// does: the request's Accept header is dropped before the service
	// sees it.
	jsonSubmits bool
	// noResult drops the result event from every event stream, as from
	// a daemon that predates it or whose store has evicted the bytes.
	noResult bool
	// taskDelay is the service's serve.Options.TaskDelay: it keeps a
	// fresh job running after its submit response.
	taskDelay time.Duration
	// forgets, when set, picks the one request answered 404 in the
	// service's place, the way a daemon answers for a job or result it
	// no longer holds; forgot records that it happened.
	forgets func(r *http.Request) bool
	forgot  atomic.Bool
	// linger holds every event stream open this long after its last
	// event has gone out, before the response ends.
	linger time.Duration
}

func (tc *transportCounts) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	streams := false // the answer may be an event stream
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		tc.submits.Add(1)
		if tc.jsonSubmits {
			r.Header.Del("Accept")
		}
		if tc.aborter != nil {
			w = tc.aborter(w)
		}
		streams = true
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/results/"):
		tc.results.Add(1)
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
		if strings.HasSuffix(r.URL.Path, "/events") {
			tc.events.Add(1)
			streams = true
		} else {
			tc.status.Add(1)
		}
	}
	if streams && tc.noResult {
		w = &dropResult{ResponseWriter: w}
	}
	if tc.forgets != nil && tc.forgets(r) && tc.forgot.CompareAndSwap(false, true) {
		http.Error(w, `{"error":"forgotten"}`, http.StatusNotFound)
		return
	}
	tc.next.ServeHTTP(w, r)
	if streams && tc.linger > 0 {
		http.NewResponseController(w).Flush()
		time.Sleep(tc.linger)
	}
}

// dropResult swallows an event stream's result event and everything
// after it.
type dropResult struct {
	http.ResponseWriter
	dropping bool
}

func (w *dropResult) Write(b []byte) (int, error) {
	if w.dropping || bytes.Contains(b, []byte("event: result")) {
		w.dropping = true
		return len(b), nil
	}
	return w.ResponseWriter.Write(b)
}

func (w *dropResult) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// newCountingService mounts a fresh service behind a transportCounts
// wrapper and returns a client for it built with the given options.
func newCountingService(t *testing.T, counts *transportCounts, opts ...client.Option) *client.Client {
	t.Helper()
	svc := serve.New(serve.Options{
		Workers:       1,
		Executors:     2,
		QueueDepth:    16,
		EventInterval: 2 * time.Millisecond,
		TaskDelay:     counts.taskDelay,
	})
	t.Cleanup(svc.Close)
	counts.next = svc.Handler()
	ts := httptest.NewServer(counts)
	t.Cleanup(ts.Close)
	return client.New(ts.URL, opts...)
}

// collectWatch runs Watch and returns the result plus the observed
// event sequence.
func collectWatch(t *testing.T, c *client.Client, req api.Request) (api.Result, []api.Event) {
	t.Helper()
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
	return res, events
}

// checkSequence asserts the transport-independent event contract:
// deduplicated, monotone, ending in the job's terminal state.
func checkSequence(t *testing.T, transport string, events []api.Event) {
	t.Helper()
	if len(events) == 0 {
		t.Fatalf("%s: no events delivered", transport)
	}
	for i := 1; i < len(events); i++ {
		if events[i] == events[i-1] {
			t.Errorf("%s: duplicate consecutive event %+v", transport, events[i])
		}
		if events[i].Done < events[i-1].Done {
			t.Errorf("%s: progress went backwards: %+v -> %+v", transport, events[i-1], events[i])
		}
	}
	if last := events[len(events)-1]; last.State != api.JobDone {
		t.Errorf("%s: final event state = %s, want done", transport, last.State)
	}
}

func TestWatchStreamMatchesJSONSubmit(t *testing.T) {
	// Two independent services so both watches observe a live job: one
	// answers the submit with the job's stream, the other with JSON, as
	// a daemon that predates the streamed submit does, so its client
	// reaches the result by resubmitting. The sequences are sampled at
	// different instants so their intermediate lengths may differ, but
	// both obey the same dedup/monotonicity contract, agree on the
	// terminal event, and return byte-identical results.
	req := watchFixture()

	streamCounts := &transportCounts{taskDelay: watchDelay}
	streamRes, streamEvents := collectWatch(t, newCountingService(t, streamCounts), req)

	jsonCounts := &transportCounts{taskDelay: watchDelay, jsonSubmits: true}
	jsonRes, jsonEvents := collectWatch(t, newCountingService(t, jsonCounts), req)

	checkSequence(t, "stream", streamEvents)
	checkSequence(t, "JSON", jsonEvents)

	if streamRes.Key != jsonRes.Key {
		t.Fatalf("keys differ: stream %s vs JSON %s", streamRes.Key, jsonRes.Key)
	}
	if !bytes.Equal(streamRes.Body, jsonRes.Body) {
		t.Fatalf("result bytes differ between transports:\nstream: %s\nJSON:   %s", streamRes.Body, jsonRes.Body)
	}
	if fin, want := streamEvents[len(streamEvents)-1], jsonEvents[len(jsonEvents)-1]; fin != want {
		t.Fatalf("terminal events differ: stream %+v vs JSON %+v", fin, want)
	}

	// Pin which transport ran. The streamed watch was its submit: the
	// stream that answered it ended on done and carried the result,
	// leaving nothing for another request to add. The JSON-answered
	// watch resubmitted until an answer carried the result, and read
	// nothing else.
	if got, want := tally(streamCounts), (requestTally{submits: 1}); got != want {
		t.Errorf("streamed watch: requests %+v, want %+v", got, want)
	}
	if got := tally(jsonCounts); got.submits < 2 || got.events+got.status+got.results != 0 {
		t.Errorf("JSON-answered watch: requests %+v, want at least 2 submits and nothing else", got)
	}
}

func TestWatchCachedJobSameSequenceOnBothTransports(t *testing.T) {
	// For an already-cached job neither transport has anything to
	// stream: the submit response is terminal and carries the result,
	// so a streamed and a JSON-answered watcher deliver the literally
	// identical one-event sequence, on one submit each.
	counts := &transportCounts{}
	streamClient := newCountingService(t, counts, client.WithRetry(0, time.Millisecond))
	req := api.Request{Kind: api.KindEstimate, Estimate: &api.EstimateSpec{
		Graph: api.GraphSpec{Family: "hypercube", N: 6},
		P:     0.7, Trials: 8, Seed: 5,
	}}
	if _, err := streamClient.Do(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	// The warm run itself may have streamed; only the cached watches
	// below are counted.
	before := tally(counts)
	_, streamEvents := collectWatch(t, streamClient, req)

	// A second client against the same warm service, its submits
	// answered with JSON.
	jsonCounts := &transportCounts{next: counts.next, jsonSubmits: true}
	ts := httptest.NewServer(jsonCounts)
	t.Cleanup(ts.Close)
	_, jsonEvents := collectWatch(t, client.New(ts.URL), req)

	want := []api.Event{{State: api.JobDone, Done: 8, Total: 8}}
	for transport, got := range map[string][]api.Event{"stream": streamEvents, "JSON": jsonEvents} {
		if len(got) != len(want) || got[0] != want[0] {
			t.Errorf("%s: cached watch events = %+v, want %+v", transport, got, want)
		}
	}
	for transport, got := range map[string]requestTally{"stream": tally(counts).minus(before), "JSON": tally(jsonCounts)} {
		if want := (requestTally{submits: 1}); got != want {
			t.Errorf("%s: cached watch requests %+v, want %+v", transport, got, want)
		}
	}
}

// abortWriter kills the response after limit SSE data frames, panicking
// with http.ErrAbortHandler exactly like a dropped connection would.
type abortWriter struct {
	http.ResponseWriter
	remaining int
}

func (w *abortWriter) Write(b []byte) (int, error) {
	if bytes.Contains(b, []byte("data:")) {
		if w.remaining == 0 {
			panic(http.ErrAbortHandler)
		}
		w.remaining--
	}
	return w.ResponseWriter.Write(b)
}

func (w *abortWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func TestWatchStreamDisconnectResubmits(t *testing.T) {
	// Every submit's stream dies after its submitted event and one
	// progress frame. Watch must resubmit, each resubmission coalescing
	// onto the running job, until an answer carries the job to its end:
	// after the job is done, the resubmission is answered with its
	// result. The one event sequence stays deduplicated and monotone
	// across the resubmissions, and the bytes are Local's. The client
	// has no retries: a resubmission after a cut stream spends none.
	counts := &transportCounts{
		aborter: func(w http.ResponseWriter) http.ResponseWriter {
			return &abortWriter{ResponseWriter: w, remaining: 2}
		},
		taskDelay: watchDelay,
	}
	c := newCountingService(t, counts, client.WithRetry(0, 20*time.Millisecond))
	req := watchFixture()
	req.Estimate.Trials = 1024
	want, err := faultroute.NewLocal().Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res, events := collectWatch(t, c, req)

	checkSequence(t, "stream-then-resubmits", events)
	if res.Key != want.Key || !bytes.Equal(res.Body, want.Body) {
		t.Fatalf("Watch returned other bytes than Local:\n got %s %s\nwant %s %s", res.Key, res.Body, want.Key, want.Body)
	}
	if got := tally(counts); got.submits < 2 || got.events+got.status+got.results != 0 {
		t.Errorf("requests %+v, want at least 2 submits and no status, event-stream or result request", got)
	}
}
