package client_test

// Transport tests for the Server-Sent-Events progress stream: the
// submit's own stream and polling must deliver equivalent deduplicated,
// monotone event sequences and byte-identical results, and a stream
// that dies mid-job must hand over to the poll loop without breaking
// either guarantee.

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

	"faultroute/api"
	"faultroute/client"
	"faultroute/serve"
)

// watchDelay is the task delay of the watch tests' services: it keeps
// watchFixture running after several polls even when the host is busy
// and its timers fire late.
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
// client made, by route: which progress transport it used, and how
// many submissions and result fetches it needed.
type transportCounts struct {
	next    http.Handler
	srvURL  string
	submits atomic.Int64 // POST /v1/jobs
	events  atomic.Int64 // GET /v1/jobs/{id}/events subscriptions
	status  atomic.Int64 // GET /v1/jobs/{id} polls
	results atomic.Int64 // GET /v1/results/{key} fetches
	// aborter, when set, wraps the response writer of every submit.
	aborter func(w http.ResponseWriter) http.ResponseWriter
	// jsonSubmits answers every submit with JSON, as a daemon that
	// predates the streamed submit does: the request's Accept header is
	// dropped before the service sees it.
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
	counts.srvURL = ts.URL
	return client.New(ts.URL, append([]client.Option{client.WithPollInterval(2 * time.Millisecond)}, opts...)...)
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

func TestWatchSSEMatchesPolling(t *testing.T) {
	// Two independent services so both watches observe a live job, one
	// client per transport: the stream the submit answers with, and
	// polling. The sequences are sampled at different instants so their
	// intermediate lengths may differ, but both obey the same
	// dedup/monotonicity contract, agree on the terminal event, and
	// return byte-identical results.
	req := watchFixture()

	sseCounts := &transportCounts{taskDelay: watchDelay}
	sseClient := newCountingService(t, sseCounts)
	sseRes, sseEvents := collectWatch(t, sseClient, req)

	pollCounts := &transportCounts{taskDelay: watchDelay}
	pollClient := newCountingService(t, pollCounts, client.WithSSE(false))
	pollRes, pollEvents := collectWatch(t, pollClient, req)

	checkSequence(t, "sse", sseEvents)
	checkSequence(t, "polling", pollEvents)

	if sseRes.Key != pollRes.Key {
		t.Fatalf("keys differ: sse %s vs polling %s", sseRes.Key, pollRes.Key)
	}
	if !bytes.Equal(sseRes.Body, pollRes.Body) {
		t.Fatalf("result bytes differ between transports:\nsse:     %s\npolling: %s", sseRes.Body, pollRes.Body)
	}
	if fin, want := sseEvents[len(sseEvents)-1], pollEvents[len(pollEvents)-1]; fin != want {
		t.Fatalf("terminal events differ: sse %+v vs polling %+v", fin, want)
	}

	// Pin which transport ran. The SSE client's whole watch was its
	// submit: the stream that answered it ended on done and carried the
	// result, leaving nothing for another request to add. The polling
	// client never touched a stream.
	if got, want := tally(sseCounts), (requestTally{submits: 1}); got != want {
		t.Errorf("sse client: requests %+v, want %+v", got, want)
	}
	if got := pollCounts.events.Load(); got != 0 {
		t.Errorf("polling client opened %d event streams, want 0", got)
	}
	if got := pollCounts.status.Load(); got < 2 {
		t.Errorf("polling client polled status %d times, want at least 2", got)
	}
}

func TestWatchCachedJobSameSequenceOnBothTransports(t *testing.T) {
	// For an already-cached job neither transport has anything to
	// stream: the submit response is terminal, so SSE and polling
	// watchers deliver the literally identical one-event sequence.
	counts := &transportCounts{}
	sseClient := newCountingService(t, counts, client.WithRetry(0, time.Millisecond))
	req := api.Request{Kind: api.KindEstimate, Estimate: &api.EstimateSpec{
		Graph: api.GraphSpec{Family: "hypercube", N: 6},
		P:     0.7, Trials: 8, Seed: 5,
	}}
	if _, err := sseClient.Do(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	// The warm run itself may have streamed; only the cached watches
	// below must not.
	streamsAfterWarm := counts.events.Load()

	_, sseEvents := collectWatch(t, sseClient, req)
	// A second client against the same warm service, polling transport.
	pollClient := client.New(counts.srvURL, client.WithSSE(false), client.WithPollInterval(time.Millisecond))
	_, pollEvents := collectWatch(t, pollClient, req)

	want := []api.Event{{State: api.JobDone, Done: 8, Total: 8}}
	for transport, got := range map[string][]api.Event{"sse": sseEvents, "polling": pollEvents} {
		if len(got) != len(want) || got[0] != want[0] {
			t.Errorf("%s: cached watch events = %+v, want %+v", transport, got, want)
		}
	}
	if got := counts.events.Load() - streamsAfterWarm; got != 0 {
		t.Errorf("cached watches opened %d event streams, want 0", got)
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

func TestWatchSSEDisconnectFallsBackToPolling(t *testing.T) {
	// The submit's stream dies after its submitted event and one
	// progress frame; Watch must hand the job to the poll loop, keep the
	// shared sequence deduplicated and monotone across the transition,
	// and still return the result.
	counts := &transportCounts{
		aborter: func(w http.ResponseWriter) http.ResponseWriter {
			return &abortWriter{ResponseWriter: w, remaining: 2}
		},
		taskDelay: watchDelay,
	}
	c := newCountingService(t, counts)
	// A longer job than watchFixture: it must outlive the aborted
	// stream by enough polls to pin the fallback, even on hosts with
	// coarse (~20ms) timer granularity.
	req := watchFixture()
	req.Estimate.Trials = 1024
	res, events := collectWatch(t, c, req)

	checkSequence(t, "sse-then-polling", events)
	if len(res.Body) == 0 {
		t.Fatal("empty result body after fallback")
	}
	if got := counts.submits.Load(); got != 1 {
		t.Errorf("client submitted %d times, want 1", got)
	}
	if got := counts.events.Load(); got != 0 {
		t.Errorf("client opened %d event streams after the disconnect, want 0 (no reconnect, straight to polling)", got)
	}
	if got := counts.status.Load(); got < 2 {
		t.Errorf("client polled status %d times after the disconnect, want at least 2", got)
	}
}
