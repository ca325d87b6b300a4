// Command faultrouted is the serving layer over the measurement engine:
// a long-running daemon that queues experiment jobs, dedupes them, and
// serves cached results over a JSON HTTP API.
//
//	faultrouted -addr :8080
//
// API (see SERVING.md for the full reference):
//
//	POST   /v1/jobs             submit an estimate, experiment or percolation job
//	                            (with Accept: text/event-stream, answered with the
//	                            job's Server-Sent-Events progress stream)
//	GET    /v1/jobs/{id}        job state + progress counters
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/results/{key}    canonical result bytes for a content address
//	GET    /v1/experiments      the E1..E21 registry with parameter schemas
//	GET    /v1/healthz          liveness + cache statistics
//	GET    /v1/metrics          Prometheus text-format metrics (queue depth,
//	                            executor utilization, cache and job counters)
//
// Every job in this repo is a pure function of its normalized spec and
// seed — bit-identical at any worker count — so results are cached
// under the SHA-256 of the canonical spec encoding, duplicate
// submissions coalesce onto one in-flight job, and repeat queries are
// O(1) cache hits that never recompute.
//
// The command is a thin flag wrapper: the HTTP layer lives in
// faultroute/serve (embeddable in tests and other programs), the wire
// types in faultroute/api, and a typed Go client in faultroute/client.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"faultroute/internal/cache"
	"faultroute/serve"
)

func main() {
	switch err := run(os.Args[1:]); {
	case err == nil:
	case errors.Is(err, errUsage):
		os.Exit(2) // the flag package already printed the error and usage
	default:
		fmt.Fprintln(os.Stderr, "faultrouted:", err)
		os.Exit(1)
	}
}

// errUsage marks a flag-parse failure whose message the flag package has
// already printed alongside the usage text.
var errUsage = errors.New("usage")

func run(args []string) error {
	fs := flag.NewFlagSet("faultrouted", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		workers   = fs.Int("workers", runtime.GOMAXPROCS(0), "default per-job trial parallelism (results are identical for any value)")
		executors = fs.Int("executors", 2, "jobs executed concurrently")
		depth     = fs.Int("queue", 64, "submission queue depth; submissions beyond it get 503")
		logMode   = fs.String("log", "off", "structured request logs on stderr: text, json, or off")
		cacheMax  = fs.Int64("cache-max-bytes", 0, "memory result-cache budget in bytes; above it the least-recently-used results are evicted (0 = unbounded)")
		cacheDir  = fs.String("cache-dir", "", "directory for the persistent disk result tier; results survive restarts (empty = memory only)")
		diskMax   = fs.Int64("cache-disk-max-bytes", 0, "disk result-tier budget in bytes; above it the oldest results are removed (0 = unbounded)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	var logger *slog.Logger
	switch *logMode {
	case "off":
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		return fmt.Errorf("unknown -log mode %q (want text, json or off)", *logMode)
	}

	// The result store stacks up from the flags: a bounded (or
	// unbounded) memory tier always, a persistent disk tier in front
	// of nothing — behind memory — when -cache-dir is set. Every tier
	// serves the same content-addressed bytes, so the stack choice is
	// pure capacity: restarts with a -cache-dir recover every prior
	// result as a cache hit.
	mem := cache.NewBounded(*cacheMax)
	var store cache.ResultStore = mem
	if *cacheDir != "" {
		disk, err := cache.NewDisk(*cacheDir, cache.WithDiskMaxBytes(*diskMax))
		if err != nil {
			return fmt.Errorf("opening -cache-dir: %w", err)
		}
		store = cache.NewTiered(mem, disk)
		fmt.Printf("faultrouted: disk cache %s recovered %d result(s)\n", *cacheDir, disk.Len())
	}

	// FAULTROUTE_TASK_DELAY slows every freshly executed task by a fixed
	// duration — a fault-injection knob for benchmarks and cluster smoke
	// tests that need a deliberately slow backend. Determinism makes it
	// safe: a delay changes timing, never result bytes.
	var taskDelay time.Duration
	if v := os.Getenv("FAULTROUTE_TASK_DELAY"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return fmt.Errorf("parsing FAULTROUTE_TASK_DELAY: %w", err)
		}
		taskDelay = d
	}

	svc := serve.New(serve.Options{
		Workers:    *workers,
		Executors:  *executors,
		QueueDepth: *depth,
		Logger:     logger,
		Store:      store,
		TaskDelay:  taskDelay,
	})
	defer svc.Close()

	// Only the header read and idle keep-alives are bounded: a streamed
	// submit's SSE answer lasts as long as its job, longer than any
	// whole-request Read/WriteTimeout,
	// and a ReadTimeout firing during net/http's background read cancels
	// the request context. The idle bound exceeds Go clients' 90 s
	// default, so clients drop idle connections before the server does.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("faultrouted: listening on %s (%d executors, %d workers each, queue %d)\n",
			*addr, *executors, *workers, *depth)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		return err // bind failure or other fatal server error
	case <-ctx.Done():
	}
	fmt.Println("faultrouted: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}
