package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"time"

	"faultroute"
	"faultroute/api"
	"faultroute/client"
	"faultroute/dispatch"
	"faultroute/internal/cache"
	"faultroute/internal/exp"
	"faultroute/internal/rng"
	"faultroute/serve"
)

// workload is one traffic mix: the op schedule it derives from the seed,
// how a session (the system under test and the runner its callers use)
// is opened, and how its results are checked.
type workload struct {
	name string
	// rate is the workload's throughput in ops/s on a 2-CPU machine at
	// the commit that defined the benchmark; it sizes a run's op count
	// from -seconds.
	rate float64
	// callers is the closed-loop concurrency: each caller waits for its
	// op's reply before claiming the next op.
	callers int
	// schedule returns the op generator: its i-th call yields op i. It is
	// called under a lock, in op order, so stateful generators (Zipf
	// draws) stay deterministic in the seed whatever the callers do.
	schedule func(seed uint64) (func() api.Request, error)
	// open boots the system under test and warms it up on requests outside
	// the schedule. tr is nil in untraced phases.
	open func(ctx context.Context, seed uint64, tr *tracer) (*session, error)
	// reference says which results are recomputed with faultroute.Local
	// after the window and byte-compared: none, the keys first seen in
	// the digest prefix, or every key.
	reference refScope
	// engine returns the estimate requests the per-layer engine pass
	// replays (nil: the first requests of the schedule).
	engine func(seed uint64) []api.Request
	// pin is the digest of ops [0, pinOps) at seed 1.
	pin string
}

type refScope int

const (
	refNone refScope = iota
	refPrefix
	refAll
)

// session is an opened workload: the runner ops go through, the base
// URLs of its in-process services (for /v1/metrics scrapes), its
// dispatch pool when it has one, and the teardown.
type session struct {
	runner   api.Runner
	backends []string
	pool     *dispatch.Pool
	close    func()
}

// Salts that split the seed into independent streams, so warm-up
// requests, catalogs and Zipf draws never share seeds with each other.
const (
	warmSalt    = 0x7761726d
	catalogSalt = 0x636174616c6f67
	zipfSalt    = 0x7a697066
)

// warmOps is how many requests outside the schedule each session runs
// before the clock starts.
const warmOps = 16

var workloads = []workload{
	{
		// E2's poly-routing regime (Theorem 3(ii)): conditioning is most
		// of each trial's time, so percolation.Connected does most of the
		// work. A fresh seed per op keeps every op a full computation.
		name:    "estimate-cube",
		rate:    70,
		callers: 1,
		schedule: func(seed uint64) (func() api.Request, error) {
			i := uint64(0)
			return func() api.Request {
				i++
				return cubeRequest(rng.Combine(seed, i-1))
			}, nil
		},
		open: func(ctx context.Context, seed uint64, tr *tracer) (*session, error) {
			local := faultroute.NewLocal()
			for j := uint64(0); j < warmOps; j++ {
				if _, err := local.Do(ctx, cubeRequest(rng.Combine(seed^warmSalt, j))); err != nil {
					return nil, fmt.Errorf("warm-up: %w", err)
				}
			}
			return &session{runner: local, close: func() {}}, nil
		},
		pin: "b5bca4025bbfe9788f1e9029fb4d0c3317e4e1507cb64d936e4f4db263515be3",
	},
	{
		// The paper's tables: every router and family, internal/exp's own
		// trial kernel and full Label scans. Routing-heavy cells (E7) show
		// routing changes that estimate-cube hides.
		name:    "experiment-suite",
		rate:    100,
		callers: 1,
		schedule: func(seed uint64) (func() api.Request, error) {
			ids := experimentIDs()
			i := 0
			return func() api.Request {
				i++
				return experimentRequest(ids[(i-1)%len(ids)], seed+uint64((i-1)/len(ids)))
			}, nil
		},
		open: func(ctx context.Context, seed uint64, tr *tracer) (*session, error) {
			local := faultroute.NewLocal()
			for _, id := range experimentIDs() {
				if _, err := local.Do(ctx, experimentRequest(id, rng.Combine(seed, warmSalt))); err != nil {
					return nil, fmt.Errorf("warm-up %s: %w", id, err)
				}
			}
			return &session{runner: local, close: func() {}}, nil
		},
		engine: e2Requests,
		pin:    "c4554d72644117044cf5333cc44cfa8d685cbd3c233b18e7d768ee8c7fc7b4d9",
	},
	{
		// One service, two client callers, Zipf popularity over a catalog
		// far larger than the run: the serve, cache and jobs layers see
		// both cheap reads (memo and cache hits) and writes (fresh compute
		// plus store put), so a gain on one that costs the other shows.
		name:    "serve-zipf",
		rate:    8000,
		callers: 2,
		schedule: func(seed uint64) (func() api.Request, error) {
			return zipfSchedule(seed, zipfCatalog, zipfRequest)
		},
		open: func(ctx context.Context, seed uint64, tr *tracer) (*session, error) {
			b, err := startBackend(tr)
			if err != nil {
				return nil, err
			}
			var opts []client.Option
			if tr != nil {
				opts = append(opts, client.WithHTTPClient(tr.client))
			}
			cli := client.New(b.url, opts...)
			s := &session{runner: cli, backends: []string{b.url}, close: b.close}
			if err := warmUp(ctx, s.runner, seed, zipfRequest); err != nil {
				s.close()
				return nil, err
			}
			return s, nil
		},
		reference: refPrefix,
		pin:       "8ad724ea041a582e20b67be06f647c861117392c1981cfeb5e508939cd0b58d0",
	},
	{
		// A default dispatch.Pool over two in-process backends: plan,
		// select, hedge, sub-job round trips, peer-fill probes and merge,
		// with little engine work per op. Zipf draws over a small catalog
		// make some estimates repeat.
		name:    "dispatch-shard",
		rate:    600,
		callers: 1,
		schedule: func(seed uint64) (func() api.Request, error) {
			return zipfSchedule(seed, shardCatalog, shardRequest)
		},
		open: func(ctx context.Context, seed uint64, tr *tracer) (*session, error) {
			var (
				urls    []string
				closers []func()
			)
			closeAll := func() {
				for _, c := range closers {
					c()
				}
			}
			for i := 0; i < 2; i++ {
				b, err := startBackend(tr)
				if err != nil {
					closeAll()
					return nil, err
				}
				urls = append(urls, b.url)
				closers = append(closers, b.close)
			}
			var opts []dispatch.Option
			if tr != nil {
				opts = append(opts, dispatch.WithClientOptions(client.WithHTTPClient(tr.client)))
			}
			pool, err := dispatch.New(urls, opts...)
			if err != nil {
				closeAll()
				return nil, err
			}
			s := &session{runner: pool, backends: urls, pool: pool, close: closeAll}
			if err := warmUp(ctx, s.runner, seed, shardRequest); err != nil {
				s.close()
				return nil, err
			}
			return s, nil
		},
		reference: refAll,
		pin:       "9abf7b40ad8f1488ac04d859aea079a2bb628e3f75e58bb3f687addd6cc1db4b",
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// cubeRequest is estimate-cube's op: hypercube n=13, p = 13^-0.3,
// antipodal pair, path-follow router, 16 trials.
func cubeRequest(seed uint64) api.Request {
	return estimateRequest(api.GraphSpec{Family: "hypercube", N: 13}, math.Pow(13, -0.3), 16, seed)
}

// Catalog sizes and popularity skew of the Zipf workloads.
const (
	zipfCatalog  = 1 << 16
	shardCatalog = 512
	zipfSkew     = 1.1
)

// zipfRequest is serve-zipf's catalog entry for a seed: hypercube n=8,
// p = 0.7, 16 trials.
func zipfRequest(seed uint64) api.Request {
	return estimateRequest(api.GraphSpec{Family: "hypercube", N: 8}, 0.7, 16, seed)
}

// shardRequest is dispatch-shard's catalog entry for a seed: hypercube
// n=11, p = 11^-0.3, 64 trials.
func shardRequest(seed uint64) api.Request {
	return estimateRequest(api.GraphSpec{Family: "hypercube", N: 11}, math.Pow(11, -0.3), 64, seed)
}

func estimateRequest(g api.GraphSpec, p float64, trials int, seed uint64) api.Request {
	return api.Request{Kind: api.KindEstimate, Estimate: &api.EstimateSpec{
		Graph: g, P: p, Router: "path-follow", Trials: trials, Seed: seed,
	}}
}

func experimentRequest(id string, seed uint64) api.Request {
	return api.Request{Kind: api.KindExperiment, Experiment: &api.ExperimentSpec{ID: id, Seed: seed}}
}

func experimentIDs() []string {
	all := exp.All()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	return ids
}

// zipfSchedule draws catalog ranks with Zipf(zipfSkew) popularity; rank
// r is the catalog entry with seed base+r.
func zipfSchedule(seed uint64, catalog int, entry func(seed uint64) api.Request) (func() api.Request, error) {
	z, err := rng.NewZipf(rng.NewStream(rng.Combine(seed, zipfSalt)), zipfSkew, catalog)
	if err != nil {
		return nil, err
	}
	base := rng.Combine(seed, catalogSalt)
	return func() api.Request { return entry(base + uint64(z.Next())) }, nil
}

// warmUp runs each of warmOps requests outside the catalog twice, so
// both the fresh path and the hit path have run before the clock starts.
func warmUp(ctx context.Context, r api.Runner, seed uint64, entry func(seed uint64) api.Request) error {
	for j := uint64(0); j < warmOps; j++ {
		req := entry(rng.Combine(seed^warmSalt, j))
		for k := 0; k < 2; k++ {
			if _, err := r.Do(ctx, req); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

// e2Requests returns the estimate equivalents of experiment E2's
// quick-scale cells (hypercube n = 8..11, p = n^-alpha for alpha 0.25 and
// 0.40, antipodal pair, path-follow, 8 trials): the conditioned-trial
// kernel the suite's E2 table runs, replayed through core so the
// experiment-suite trace reports the same engine metrics as the others.
func e2Requests(seed uint64) []api.Request {
	var reqs []api.Request
	for ai, alpha := range []float64{0.25, 0.40} {
		for n := 8; n <= 11; n++ {
			cell := rng.Combine(seed, uint64(ai*100+n))
			reqs = append(reqs, estimateRequest(api.GraphSpec{Family: "hypercube", N: n}, math.Pow(float64(n), -alpha), 8, cell))
		}
	}
	return reqs
}

// backend is one in-process faultrouted service behind a loopback
// listener, with library defaults (its result store is wrapped for
// timing in traced phases, its handler for spans).
type backend struct {
	svc    *serve.Service
	srv    *http.Server
	url    string
	served chan error
}

func startBackend(tr *tracer) (*backend, error) {
	var opts serve.Options
	if tr != nil {
		opts.Store = tr.store(cache.NewStore())
	}
	svc := serve.New(opts)
	h := svc.Handler()
	if tr != nil {
		h = tr.handler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	b := &backend{svc: svc, srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { b.served <- b.srv.Serve(ln) }()
	return b, nil
}

// close stops the listener, drains the service's executors and waits
// for the serving goroutine to return.
func (b *backend) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := b.srv.Shutdown(ctx); err != nil {
		b.srv.Close() // a connection outlived the grace period
	}
	b.svc.Close()
	if err := <-b.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "frbench: backend:", err)
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// checkResult decodes one result strictly and checks what must hold of
// every correct answer to its request.
func checkResult(req api.Request, res api.Result) error {
	if res.Kind != req.Kind {
		return fmt.Errorf("result kind %q for a %q request", res.Kind, req.Kind)
	}
	switch req.Kind {
	case api.KindEstimate:
		r, err := res.Estimate()
		if err != nil {
			return err
		}
		if r.Trials+r.Censored != req.Estimate.Trials || r.Rejected < 0 {
			return fmt.Errorf("estimate counts trials=%d censored=%d rejected=%d for %d trials",
				r.Trials, r.Censored, r.Rejected, req.Estimate.Trials)
		}
		if r.Trials > 0 && !(r.Min <= r.Q25 && r.Q25 <= r.Median && r.Median <= r.Q75 &&
			r.Q75 <= r.P90 && r.P90 <= r.Max && r.Min <= r.Mean && r.Mean <= r.Max && r.Min >= 0) {
			return fmt.Errorf("estimate summary out of order: %+v", r)
		}
	case api.KindExperiment:
		t, err := res.Table()
		if err != nil {
			return err
		}
		if t.ID != req.Experiment.ID || len(t.Columns) == 0 {
			return fmt.Errorf("table %q with %d columns for experiment %s", t.ID, len(t.Columns), req.Experiment.ID)
		}
		for i, row := range t.Rows {
			if len(row) != len(t.Columns) {
				return fmt.Errorf("table %s row %d has %d cells for %d columns", t.ID, i, len(row), len(t.Columns))
			}
		}
	default:
		return fmt.Errorf("unexpected request kind %q", req.Kind)
	}
	return nil
}
