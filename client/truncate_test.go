package client_test

import (
	"bytes"
	"context"
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

// truncatingTransport cuts the 200 bodies that can carry a result —
// GET /v1/results/{key}, and a POST /v1/jobs answered cached or with the
// job's event stream — and drops their Content-Length, so the cut reads
// as a clean end of body: the shape of a connection dropped mid-body on
// a close-delimited response. A JSON body is cut in half, and an event
// stream in the middle of its result event. cuts is how many such
// bodies it still cuts.
type truncatingTransport struct {
	cuts atomic.Int64
}

func (tt *truncatingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	carriesResult := r.Method == http.MethodPost && r.URL.Path == api.BasePath+"/jobs" ||
		r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, api.BasePath+"/results/")
	if err != nil || resp.StatusCode != http.StatusOK || !carriesResult || tt.cuts.Add(-1) < 0 {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	cut := len(body) / 2
	if i := bytes.Index(body, []byte("event: result\n")); i >= 0 {
		cut = i + (len(body)-i)/2
	}
	resp.Body = io.NopCloser(bytes.NewReader(body[:cut]))
	resp.ContentLength = -1
	resp.Header.Del("Content-Length")
	return resp, nil
}

func TestClientRejectsTruncatedResultBody(t *testing.T) {
	svc := serve.New(serve.Options{Executors: 2})
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	req := api.Request{Kind: api.KindExperiment, Experiment: &api.ExperimentSpec{ID: "E1", Seed: 1, Scale: "quick"}}
	ctx := context.Background()
	want, err := faultroute.NewLocal().Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	// cut returns a client whose transport cuts the next n bodies.
	cut := func(n int64) *client.Client {
		tt := &truncatingTransport{}
		tt.cuts.Store(n)
		return client.New(ts.URL,
			client.WithRetry(1, time.Millisecond),
			client.WithHTTPClient(&http.Client{Transport: tt}))
	}
	// The first Do is a fresh job: the submit's event stream is cut in
	// its result event. The later ones are cached: the 200 submit
	// response carries the result, and it is what gets cut.
	for _, phase := range []string{"fresh job, event stream", "cached submit"} {
		// Every read is cut: the client must fail, never return the prefix.
		if res, err := cut(1<<30).Do(ctx, req); err == nil {
			t.Fatalf("%s: Do returned %d of %d bytes from truncated bodies with a nil error", phase, len(res.Body), len(want.Body))
		}
	}

	// Only the first read is cut: the error is retriable, and the retry
	// reads the whole body, the cached submit's or a result GET's.
	got, err := cut(1).Do(ctx, req)
	if err != nil {
		t.Fatalf("cached submit: Do after one truncated read: %v", err)
	}
	if !bytes.Equal(got.Body, want.Body) {
		t.Fatalf("cached submit: Do after one truncated read returned other bytes:\n got %s\nwant %s", got.Body, want.Body)
	}
	body, err := cut(1).Result(ctx, want.Key)
	if err != nil {
		t.Fatalf("result GET after one truncated read: %v", err)
	}
	if !bytes.Equal(body, want.Body) {
		t.Fatalf("result GET after one truncated read returned other bytes:\n got %s\nwant %s", body, want.Body)
	}
}
