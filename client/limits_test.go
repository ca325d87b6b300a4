package client

// Tests of the client's read bounds: a response body past the client's
// bound is an error, an event stream that sends an oversized event is
// hung up on and resubmitted, and the bound stays above the largest
// result an accepted request can produce.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"faultroute/api"
)

// streamPast writes filler until n bytes are out, then holds the
// response open until the client goes away or the test ends (stop
// closes). A client that kept reading would wait for the rest of a body
// or event that never comes.
func streamPast(w http.ResponseWriter, r *http.Request, n int, filler string, stop <-chan struct{}) {
	for sent := 0; sent < n; sent += len(filler) {
		if _, err := fmt.Fprint(w, filler); err != nil {
			return
		}
	}
	w.(http.Flusher).Flush()
	select {
	case <-r.Context().Done():
	case <-stop:
	}
}

// TestResponseBodyCap streams result bodies past a lowered bound, one
// with a Content-Length and one chunked, and checks that a body of
// exactly the bound still reads.
func TestResponseBodyCap(t *testing.T) {
	const bound = 4 << 10
	exact := `"` + strings.Repeat("x", bound-2) + `"`
	stop := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case api.BasePath + "/results/exact":
			fmt.Fprint(w, exact)
		case api.BasePath + "/results/sized":
			w.Header().Set("Content-Length", fmt.Sprint(4*bound))
			streamPast(w, r, 4*bound, strings.Repeat(" ", 256), stop)
		default:
			streamPast(w, r, 64*bound, strings.Repeat(" ", 256), stop)
		}
	}))
	defer ts.Close()
	defer close(stop)
	c := New(ts.URL)
	c.maxBody = bound

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	body, err := c.Result(ctx, "exact")
	if err != nil || string(body) != exact {
		t.Fatalf("body of exactly the bound: %d bytes, %v", len(body), err)
	}
	for _, key := range []string{"sized", "chunked"} {
		_, err := c.Result(ctx, key)
		if err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("%s body past the bound: err = %v, want a bound error", key, err)
		}
	}
}

// TestOversizedEventResubmits answers the first submit with the job's
// event stream, whose one event after submitted is 1 MiB of data lines
// that never ends, and the second with the result. The client must
// hang up on the stream and resubmit.
func TestOversizedEventResubmits(t *testing.T) {
	var submits, others atomic.Int64
	hungUp := make(chan struct{})
	stop := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path != api.BasePath+"/jobs":
			others.Add(1)
			http.NotFound(w, r)
		case submits.Add(1) == 1:
			w.Header().Set("Content-Type", "text/event-stream")
			fmt.Fprint(w, "event: submitted\ndata: {\"job\":{\"id\":\"j1\",\"key\":\"k1\",\"state\":\"running\",\"total\":1}}\n\n")
			streamPast(w, r, 1<<20, "data: "+strings.Repeat("x", 1000)+"\n", stop)
			close(hungUp)
		default:
			fmt.Fprint(w, `{"job":{"id":"j1","key":"k1","state":"done","done":1,"total":1},"cached":true,"result":{"ok":true}}`)
		}
	}))
	defer ts.Close()
	defer close(stop)
	c := New(ts.URL, WithRetry(3, time.Millisecond))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := c.Do(ctx, api.Request{Kind: api.KindExperiment, Experiment: &api.ExperimentSpec{ID: "E1"}})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Body) != "{\"ok\":true}\n" || submits.Load() != 2 || others.Load() != 0 {
		t.Fatalf("body %q after %d submits and %d other requests, want the result from the second submit alone", res.Body, submits.Load(), others.Load())
	}
	select {
	case <-hungUp:
	case <-ctx.Done():
		t.Fatal("the client never hung up on the oversized event")
	}
}

// TestResponseCapFitsLargestShard checks maxResponseBytes against the
// largest result an accepted request can produce: a shard result of
// api.MaxTrials rows, every row at its longest encoding, inside a submit
// response.
func TestResponseCapFitsLargestShard(t *testing.T) {
	row, err := json.Marshal(api.TrialRow{
		Probes: -math.MaxFloat64, Accepted: true, Censored: true, Rejected: math.MinInt,
	})
	if err != nil {
		t.Fatal(err)
	}
	envelope, err := json.Marshal(api.SubmitResponse{
		Job:    api.JobStatus{ID: strings.Repeat("j", 64), Key: strings.Repeat("k", 64), State: api.JobDone, Done: math.MaxInt64, Total: math.MaxInt64},
		Cached: true, Coalesced: true,
		Result: json.RawMessage(`{"offset":-9223372036854775808,"rows":[]}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every row but the last is followed by a comma.
	largest := len(envelope) + api.MaxTrials*(len(row)+1)
	if largest > maxResponseBytes {
		t.Fatalf("largest shard response is %d bytes, over the %d-byte bound", largest, maxResponseBytes)
	}
}
