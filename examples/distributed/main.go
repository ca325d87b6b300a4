// Command distributed demonstrates the fourth entry point of the
// execution surface: a dispatch.Pool sharding one estimate across
// several faultrouted backends. Three services boot in-process on
// loopback ports (a real deployment runs `faultrouted -addr :8080` on
// separate machines); the pool splits the trial range into sub-jobs,
// fans them over the backends, and merges the per-trial rows back into
// the canonical result. The program then verifies the two guarantees
// the dispatch layer makes:
//
//  1. The merged bytes are identical to an in-process faultroute.Local
//     run of the same request — at any backend count and shard layout.
//  2. Killing a backend mid-run only costs time: the lost shards are
//     re-dispatched to the survivors and the bytes still match.
//
// Run it from the repository root:
//
//	go run ./examples/distributed
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"faultroute"
	"faultroute/api"
	"faultroute/dispatch"
	"faultroute/serve"
)

// backend bundles one in-process faultrouted service with its server so
// the failover demo can kill it.
type backend struct {
	svc *serve.Service
	srv *http.Server
	ln  net.Listener
	url string
}

func startBackend() (*backend, error) {
	svc := serve.New(serve.Options{Executors: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	return &backend{svc: svc, srv: srv, ln: ln, url: "http://" + ln.Addr().String()}, nil
}

func (b *backend) kill() {
	b.srv.Close() // drops every connection; later dials are refused
	b.svc.Close()
}

func main() {
	ctx := context.Background()

	var urls []string
	var cluster []*backend
	for i := 0; i < 3; i++ {
		b, err := startBackend()
		if err != nil {
			log.Fatal(err)
		}
		defer b.kill()
		cluster = append(cluster, b)
		urls = append(urls, b.url)
	}
	fmt.Printf("cluster of %d backends:\n", len(urls))
	for _, u := range urls {
		fmt.Printf("  %s\n", u)
	}

	pool, err := dispatch.New(urls)
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range pool.Health(ctx) {
		fmt.Printf("  %s healthy=%v\n", h.URL, h.Err == nil)
	}

	// One estimate, large enough to be worth distributing: the routing
	// complexity of the 10-cube just above its percolation threshold.
	req := api.Request{
		Kind: api.KindEstimate,
		Estimate: &api.EstimateSpec{
			Graph:  api.GraphSpec{Family: "hypercube", N: 10},
			P:      0.55,
			Trials: 400,
			Seed:   1,
		},
	}

	// The pool splits an estimate by its trial count alone (400 trials
	// are 8 shards of 50); the layout never changes bytes.
	fmt.Printf("\ndispatching %d trials as shard sub-jobs across %d backends\n",
		req.Estimate.Trials, len(urls))
	var last api.Event
	start := time.Now()
	res, err := pool.Watch(ctx, req, func(ev api.Event) { last = ev })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed run done in %v (last event: %s %d/%d)\n",
		time.Since(start).Round(time.Millisecond), last.State, last.Done, last.Total)

	// Guarantee 1: byte-identity against the in-process engine.
	localRes, err := faultroute.NewLocal().Do(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(res.Body, localRes.Body) {
		log.Fatalf("distributed bytes differ from local!\n  pool:  %s\n  local: %s", res.Body, localRes.Body)
	}
	fmt.Printf("byte-identical to faultroute.Local: %v\n", true)
	est, _ := res.Estimate()
	fmt.Printf("  median probes %.1f over %d conditioned trials (key %s…)\n\n",
		est.Median, est.Trials, res.Key[:12])

	// Guarantee 2: failover. Kill one backend, re-run with a fresh spec
	// (a new seed, so nothing is served from cache) — the pool
	// re-dispatches the dead backend's shards to the survivors.
	fmt.Printf("killing %s mid-cluster and re-running with seed 2\n", cluster[0].url)
	cluster[0].kill()
	req.Estimate.Seed = 2
	res2, err := pool.Do(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	local2, err := faultroute.NewLocal().Do(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(res2.Body, local2.Body) {
		log.Fatalf("post-failover bytes differ from local!")
	}
	fmt.Println("survivors absorbed the dead backend's shards; bytes still identical")
}
