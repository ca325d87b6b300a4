package client_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"faultroute/api"
	"faultroute/client"
	"faultroute/serve"
)

// BenchmarkDo is the client layer's row: one Do with default options
// against a default in-process service over loopback HTTP. reqs/op is
// the HTTP requests each Do made.
//
//   - cached: the same estimate every op, already computed; the submit
//     response carries the result bytes.
//   - fresh: a new seed every op; the POST, answered with the job's
//     event stream, which ends with the result bytes, and the 16-trial
//     compute itself.
func BenchmarkDo(b *testing.B) {
	svc := serve.New(serve.Options{})
	defer svc.Close()
	h := svc.Handler()
	var reqs atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqs.Add(1)
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()
	run := func(b *testing.B, next func() api.Request) {
		b.ReportAllocs()
		reqs.Store(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Do(ctx, next()); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(reqs.Load())/float64(b.N), "reqs/op")
	}

	b.Run("cached", func(b *testing.B) {
		req := inlineFixture(1)
		// Compute, then freeze the memo's response: every timed op is a
		// memo hit.
		for i := 0; i < 2; i++ {
			if _, err := c.Do(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
		run(b, func() api.Request { return req })
	})
	seed := uint64(1 << 20) // never repeats across the runs of the sub-benchmark
	b.Run("fresh", func(b *testing.B) {
		run(b, func() api.Request {
			seed++
			return inlineFixture(seed)
		})
	})
}
