// Command remote demonstrates the remote execution path: it starts an
// in-process faultrouted service (the same HTTP layer `go run
// ./cmd/faultrouted` exposes), then drives it with faultroute/client
// exactly as a networked consumer would — submit, stream progress,
// fetch the cached result — and checks the headline guarantee of the
// Runner API: the bytes served remotely are identical to an in-process
// faultroute.Local run of the same request.
//
//	go run ./examples/remote
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net"
	"net/http"

	"faultroute"
	"faultroute/api"
	"faultroute/client"
	"faultroute/serve"
)

func main() {
	// A real deployment runs `faultrouted -addr :8080` on another
	// machine; here the service lives in-process on a loopback port so
	// the example is self-contained.
	svc := serve.New(serve.Options{Executors: 2})
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	defer srv.Close()

	base := "http://" + ln.Addr().String()
	c := client.New(base)
	ctx := context.Background()
	fmt.Printf("daemon listening on %s\n\n", base)

	// The registry tells clients what the service can run.
	infos, err := c.Experiments(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("service offers %d experiments (%s .. %s)\n\n",
		len(infos), infos[0].ID, infos[len(infos)-1].ID)

	// One request type for every backend: a routing-complexity estimate
	// on the 10-cube near its percolation threshold.
	req := api.Request{
		Kind: api.KindEstimate,
		Estimate: &api.EstimateSpec{
			Graph:  api.GraphSpec{Family: "hypercube", N: 10},
			P:      0.55,
			Trials: 40,
			Seed:   1,
		},
	}

	// Watch streams the job's progress while it runs remotely.
	fmt.Println("running remotely via client.Watch:")
	res, err := c.Watch(ctx, req, func(ev api.Event) {
		fmt.Printf("  %-8s %d/%d trials\n", ev.State, ev.Done, ev.Total)
	})
	if err != nil {
		log.Fatal(err)
	}
	est, err := res.Estimate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("remote result (key %.12s…): median %.1f probes, mean %.1f over %d pairs\n\n",
		res.Key, est.Median, est.Mean, est.Trials)

	// The interchangeability guarantee: the same request through the
	// in-process Runner yields byte-identical canonical JSON.
	inProc, err := faultroute.NewLocal().Do(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("in-process bytes identical to remote bytes: %v\n",
		bytes.Equal(res.Body, inProc.Body))

	// Resubmitting is free: the daemon coalesces by content address.
	sub, err := c.Submit(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resubmission answered from cache: %v (job %s)\n", sub.Cached, sub.Job.ID)
}
