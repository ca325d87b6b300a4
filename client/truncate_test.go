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

// truncatingTransport cuts 200 GET /v1/results/{key} bodies in half and
// drops their Content-Length, so the cut reads as a clean end of body:
// the shape of a connection dropped mid-body on a close-delimited
// response. cuts is how many such bodies it still cuts.
type truncatingTransport struct {
	cuts atomic.Int64
}

func (tt *truncatingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil || resp.StatusCode != http.StatusOK || r.Method != http.MethodGet ||
		!strings.HasPrefix(r.URL.Path, api.BasePath+"/results/") || tt.cuts.Add(-1) < 0 {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body[:len(body)/2]))
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
	newClient := func(tt *truncatingTransport) *client.Client {
		return client.New(ts.URL,
			client.WithPollInterval(2*time.Millisecond),
			client.WithRetry(1, time.Millisecond),
			client.WithHTTPClient(&http.Client{Transport: tt}))
	}

	// Every read is cut: the client must fail, never return the prefix.
	always := &truncatingTransport{}
	always.cuts.Store(1 << 30)
	if res, err := newClient(always).Do(ctx, req); err == nil {
		t.Fatalf("Do returned %d of %d bytes from truncated bodies with a nil error", len(res.Body), len(want.Body))
	}

	// Only the first read is cut: the error is retriable, and the retry
	// reads the whole body.
	once := &truncatingTransport{}
	once.cuts.Store(1)
	got, err := newClient(once).Do(ctx, req)
	if err != nil {
		t.Fatalf("Do after one truncated read: %v", err)
	}
	if !bytes.Equal(got.Body, want.Body) {
		t.Fatalf("Do after one truncated read returned other bytes:\n got %s\nwant %s", got.Body, want.Body)
	}
}
