package client_test

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	"faultroute/api"
	"faultroute/client"
	"faultroute/serve"
)

// ExampleClient drives a faultrouted service exactly as a networked
// consumer would: construct a client on the daemon's base URL, submit a
// wire request, decode the canonical result. The service here runs
// in-process so the example is self-contained; a real deployment points
// client.New at `faultrouted -addr :8080` on another machine.
func ExampleClient() {
	svc := serve.New(serve.Options{Executors: 1, Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	c := client.New(srv.URL)
	res, err := c.Do(context.Background(), api.Request{
		Kind: api.KindEstimate,
		Estimate: &api.EstimateSpec{
			Graph:  api.GraphSpec{Family: "hypercube", N: 8},
			P:      0.6,
			Trials: 20,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	// The body is byte-identical to a faultroute.Local run of the same
	// request — the client and the in-process runner are interchangeable
	// api.Runner implementations.
	est, err := res.Estimate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trials=%d median=%.1f\n", est.Trials, est.Median)
	// Output:
	// trials=20 median=136.0
}
