package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"faultroute"
	"faultroute/api"
	"faultroute/client"
	"faultroute/serve"
)

// noFlush hides the wrapped writer's Flush and Unwrap, as a front end
// that cannot flush does.
type noFlush struct{ http.ResponseWriter }

// sseEvent is one event of a stream read whole: its name and its data
// lines joined by newlines.
type sseEvent struct{ name, data string }

// readStream reads an event stream to its end and returns its events,
// dropping frames that carry no data.
func readStream(t *testing.T, resp *http.Response) []sseEvent {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "text/event-stream" {
		t.Fatalf("answer %d %q, want a 200 event stream", resp.StatusCode, ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var events []sseEvent
	for _, frame := range strings.Split(string(body), "\n\n") {
		var ev sseEvent
		var data []string
		for _, line := range strings.Split(frame, "\n") {
			if v, ok := strings.CutPrefix(line, "event: "); ok {
				ev.name = v
			} else if v, ok := strings.CutPrefix(line, "data: "); ok {
				data = append(data, v)
			}
		}
		if data != nil {
			ev.data = strings.Join(data, "\n")
			events = append(events, ev)
		}
	}
	return events
}

// TestStreamWithoutFlusherEndsWithResult mounts the service behind a
// front end that cannot flush. A stream then cannot push its events as
// they happen, but it must still follow the job to its end: a streamed
// submit ends with the terminal done and the result, and a client.Do is
// one request.
func TestStreamWithoutFlusherEndsWithResult(t *testing.T) {
	// The delay keeps every job running past its stream's first
	// snapshot, where the stream would first flush.
	svc := serve.New(serve.Options{Executors: 2, EventInterval: 2 * time.Millisecond, TaskDelay: 100 * time.Millisecond})
	t.Cleanup(svc.Close)
	h := svc.Handler()
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		h.ServeHTTP(noFlush{w}, r)
	}))
	t.Cleanup(ts.Close)

	ctx := context.Background()
	fixture := func(seed uint64) (api.Request, []byte, api.Result) {
		req := api.Request{Kind: api.KindEstimate, Estimate: &api.EstimateSpec{
			Graph: api.GraphSpec{Family: "hypercube", N: 8},
			P:     0.7, Trials: 16, Seed: seed,
		}}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := faultroute.NewLocal().Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		return req, body, want
	}
	// endsWithResult checks that a stream's last two events are the
	// terminal done and the result, carrying want's bytes.
	endsWithResult := func(name string, events []sseEvent, want api.Result) {
		t.Helper()
		n := len(events)
		if n < 2 {
			t.Fatalf("%s: %d events, want the terminal done and the result at least", name, n)
		}
		var fin api.Event
		if events[n-2].name != "progress" || json.Unmarshal([]byte(events[n-2].data), &fin) != nil || fin.State != api.JobDone {
			t.Fatalf("%s: next-to-last event %+v, want the terminal done", name, events[n-2])
		}
		if events[n-1].name != "result" || events[n-1].data+"\n" != string(want.Body) {
			t.Fatalf("%s: last event %+v, want the result %s", name, events[n-1], want.Body)
		}
	}

	_, body, want := fixture(1)
	post, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	post.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(post)
	if err != nil {
		t.Fatal(err)
	}
	endsWithResult("streamed submit", readStream(t, resp), want)

	req, _, want := fixture(3)
	before := requests.Load()
	got, err := client.New(ts.URL).Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != want.Key || !bytes.Equal(got.Body, want.Body) {
		t.Fatalf("client.Do returned other bytes than Local:\n got %s %s\nwant %s %s", got.Key, got.Body, want.Key, want.Body)
	}
	if n := requests.Load() - before; n != 1 {
		t.Fatalf("client.Do made %d requests, want 1", n)
	}
}
