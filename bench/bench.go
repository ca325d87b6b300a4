// Package bench is the saturation-grade load harness of the serving
// stack: it sweeps parameter grids — clients × workers × backends ×
// shard size × trial count × graph family × cache-hit ratio — against
// live faultrouted daemons (or a serve.Service it boots itself), drives
// closed-loop and open-loop load with Zipf-distributed spec popularity,
// and reports throughput, latency quantiles from its own HDR-style
// histograms, and before/after deltas of every backend's /v1/metrics
// scrape.
//
// The measurement methodology is two-sided. The driver measures what a
// client can observe: jobs/s, served trials/s, and submit-to-result
// latency (p50/p95/p99) from histograms recorded on the load path. The
// scrape deltas measure what the system did to serve that load: fresh
// executions vs coalesced and cache-hit submissions, queue rejections,
// cache hits and misses. The headline scenario — the millions-of-users
// preset — asserts the relation between the two: under a duplicate-
// heavy Zipf workload, hit+coalesce must absorb nearly all submissions,
// so throughput scales with the cache, not the executor pool.
//
// Rows are emitted in the BENCH_*.json trajectory schema (see Row and
// docs/BENCHMARKS.md), so sweep results and the scripts/bench.sh
// microbenchmarks compose into one perf trajectory.
//
// cmd/faultbench is the CLI over this package.
package bench

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"faultroute/api"
	"faultroute/client"
	"faultroute/dispatch"
	"faultroute/internal/rng"
	"faultroute/serve"

	"faultroute"
)

// Cell is one sweep point: a full parameterization of the workload and
// the load-generation mode. The zero value of any field selects the
// documented default at run time (see Grid).
type Cell struct {
	// Clients is the closed-loop concurrency: the number of load
	// generators issuing ops back to back. In open-loop mode (Rate > 0)
	// it bounds the in-flight ops instead, so a saturated backend shows
	// up as queueing delay in the latency histogram rather than as an
	// unbounded goroutine pile-up.
	Clients int
	// Rate switches the cell to open-loop load: ops arrive at this fixed
	// rate per second regardless of completions, and latency is measured
	// from each op's scheduled arrival (so backlog is charged to the
	// backend, never hidden — no coordinated omission). 0 = closed loop.
	Rate float64
	// Think is the closed-loop pause between an op's completion and the
	// generator's next op.
	Think time.Duration
	// Workers is the per-request trial-parallelism hint (api.Request.Workers).
	Workers int
	// Trials is the estimate size of every catalog spec.
	Trials int
	// Shard, when > 0, splits each op's estimate into trial-range shard
	// sub-jobs of this size, fanned across the backends and merged
	// locally — the wire shape of a dispatch.Pool run. It applies only
	// to cells without Pool: a pool lays out shards by its own rule,
	// from the trial count.
	Shard int
	// Graph is the topology template of the catalog specs.
	Graph api.GraphSpec
	// P is the retention probability of the catalog specs.
	P float64
	// Catalog is the number of distinct specs; together with Zipf it
	// sets the cell's intended cache-hit ratio (Catalog 1 = everything
	// after the first op can coalesce; large Catalog + flat Zipf =
	// mostly fresh work).
	Catalog int
	// Zipf is the popularity skew over the catalog (0 = uniform).
	Zipf float64
	// Backends caps how many of the target's URLs this cell uses
	// (0 = all).
	Backends int
	// Ops is the number of operations the cell issues (0 = the run
	// Options default).
	Ops int
	// Pool routes every op through a dispatch.Pool over the cell's
	// backends instead of the per-client submit path: the pool shards
	// each estimate by its trial count, places every sub-job on the
	// backend that owns its content key, and — with Hedge — speculates
	// on stragglers.
	// Every pool result is verified byte-for-byte against an in-process
	// faultroute.Local reference computed before the clock starts, so a
	// pool cell is simultaneously a correctness check of the dispatch
	// determinism contract.
	Pool bool
	// Hedge enables straggler speculation in the cell's pool (Pool cells
	// only): sub-jobs that outlive HedgeAfter race a duplicate on their
	// owner's successor, the next backend in their placement order.
	Hedge bool
	// HedgeAfter is the pool's hedge floor (0 = the pool default).
	HedgeAfter time.Duration
}

// Name renders the cell's sweep coordinates as a benchmark-style row
// name.
func (c Cell) Name() string {
	var sb strings.Builder
	if c.Rate > 0 {
		fmt.Fprintf(&sb, "Faultbench/open-rate%g-max%d", c.Rate, c.Clients)
	} else {
		fmt.Fprintf(&sb, "Faultbench/closed-c%d", c.Clients)
	}
	fmt.Fprintf(&sb, "/%s", c.Graph.Family)
	if c.Graph.N > 0 {
		fmt.Fprintf(&sb, "%d", c.Graph.N)
	} else if c.Graph.Side > 0 {
		fmt.Fprintf(&sb, "%dx%d", c.Graph.D, c.Graph.Side)
	}
	fmt.Fprintf(&sb, "-t%d", c.Trials)
	if c.Shard > 0 {
		fmt.Fprintf(&sb, "-shard%d", c.Shard)
	}
	if c.Pool {
		sb.WriteString("-pool")
	}
	if c.Hedge {
		sb.WriteString("-hedge")
	}
	fmt.Fprintf(&sb, "/b%d-w%d/cat%d-zipf%g", c.Backends, c.Workers, c.Catalog, c.Zipf)
	return sb.String()
}

// Grid is a parameter grid; Cells expands it to the cartesian product
// of its axes. An empty axis selects one default value, so the zero
// grid is a single sane cell rather than an empty sweep.
type Grid struct {
	Clients  []int           // default 16
	Rates    []float64       // default 0 (closed loop)
	Workers  []int           // default 1
	Trials   []int           // default 32
	Shards   []int           // default 0 (unsharded)
	Graphs   []api.GraphSpec // default hypercube n=10
	Catalogs []int           // default 16
	Zipfs    []float64       // default 1.1
	Backends []int           // default 0 (all targets)
	Think    time.Duration   // closed-loop think time for every cell
	P        float64         // retention probability, default 0.7
	Ops      int             // per-cell op count, 0 = run Options default
}

func defInts(v []int, d int) []int {
	if len(v) == 0 {
		return []int{d}
	}
	return v
}

func defFloats(v []float64, d float64) []float64 {
	if len(v) == 0 {
		return []float64{d}
	}
	return v
}

// Cells expands the grid.
func (g Grid) Cells() []Cell {
	graphs := g.Graphs
	if len(graphs) == 0 {
		graphs = []api.GraphSpec{{Family: "hypercube", N: 10}}
	}
	p := g.P
	if p == 0 {
		p = 0.7
	}
	var cells []Cell
	for _, clients := range defInts(g.Clients, 16) {
		for _, rate := range defFloats(g.Rates, 0) {
			for _, workers := range defInts(g.Workers, 1) {
				for _, trials := range defInts(g.Trials, 32) {
					for _, shard := range defInts(g.Shards, 0) {
						for _, graph := range graphs {
							for _, catalog := range defInts(g.Catalogs, 16) {
								for _, zipf := range defFloats(g.Zipfs, 1.1) {
									for _, backends := range defInts(g.Backends, 0) {
										cells = append(cells, Cell{
											Clients: clients, Rate: rate, Think: g.Think,
											Workers: workers, Trials: trials, Shard: shard,
											Graph: graph, P: p, Catalog: catalog, Zipf: zipf,
											Backends: backends, Ops: g.Ops,
										})
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return cells
}

// Target is the system under load: one or more backend base URLs, plus
// the teardown of anything SelfHost booted.
type Target struct {
	URLs   []string
	hc     *http.Client
	closer func() error
}

// Connect returns a target for already-running daemons (a cluster.sh
// fleet, a production deployment).
func Connect(urls ...string) *Target {
	return &Target{URLs: urls, hc: newLoadHTTPClient()}
}

// SelfHost boots an in-process serve.Service behind a real loopback
// listener and targets it. The harness still drives it through HTTP —
// the submit path's decode/compile/encode cost is part of what a
// saturation run must measure — but needs no daemon and tears down
// with Close.
func SelfHost(opts serve.Options) (*Target, error) {
	svc := serve.New(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	hc := newLoadHTTPClient()
	closer := func() error {
		// The transport's dial race can leave an idle connection that
		// never carried a request. Shutdown waits for such a connection
		// until it is 5 s old, so the client closes its idle ones first.
		hc.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		svc.Close()
		return err
	}
	return &Target{
		URLs:   []string{"http://" + ln.Addr().String()},
		hc:     hc,
		closer: closer,
	}, nil
}

// SelfHostFleet boots n independent in-process services, each behind
// its own loopback listener — a heterogeneous cell when delays is
// non-nil: delays[i] becomes service i's serve.Options.TaskDelay, so a
// single slow daemon (the straggler the dispatch hedger exists for)
// is one positive entry away. Close tears the whole fleet down.
func SelfHostFleet(n int, opts serve.Options, delays []time.Duration) (*Target, error) {
	if n <= 0 {
		n = 1
	}
	urls := make([]string, 0, n)
	closers := make([]func() error, 0, n)
	hc := newLoadHTTPClient()
	closeAll := func() error {
		hc.CloseIdleConnections() // see SelfHost
		var first error
		for _, c := range closers {
			if err := c(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	for i := 0; i < n; i++ {
		o := opts
		o.Store = nil // every daemon owns its store; a shared one would hide dispatch
		if i < len(delays) {
			o.TaskDelay = delays[i]
		}
		t, err := SelfHost(o)
		if err != nil {
			closeAll()
			return nil, err
		}
		urls = append(urls, t.URLs...)
		closers = append(closers, t.Close)
	}
	return &Target{URLs: urls, hc: hc, closer: closeAll}, nil
}

// Close tears down whatever SelfHost booted; it is a no-op for Connect
// targets.
func (t *Target) Close() error {
	if t.closer == nil {
		return nil
	}
	return t.closer()
}

// newLoadHTTPClient returns an http.Client sized for load generation:
// the default transport's two idle connections per host would force a
// fresh TCP handshake under every concurrent client beyond the second,
// measuring the dialer instead of the daemon.
func newLoadHTTPClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 0 // unlimited pool, bounded by in-flight ops
	tr.MaxIdleConnsPerHost = 4096
	tr.MaxConnsPerHost = 0
	return &http.Client{Transport: tr}
}

// Options configures a sweep run.
type Options struct {
	// Ops is the default per-cell op count for cells that don't set
	// their own (0 selects 200).
	Ops int
	// Seed derives every cell's catalog seeds and op schedule; a run is
	// reproducible from (grid, seed) up to timing.
	Seed uint64
	// MinAbsorbed, when > 0, asserts that every cell's absorbed fraction
	// — (coalesced + cached) / all non-rejected submissions, from the
	// scrape deltas — reaches at least this value, failing the run
	// otherwise. The millions-of-users preset sets it: under Zipf
	// duplicate-heavy load, the coalescing and cache layers must carry
	// the traffic.
	MinAbsorbed float64
	// HedgeSpeedup, when > 0, asserts the hedging win across the sweep:
	// the summed wall time of the hedge-enabled pool cells must stay
	// under this fraction of the hedge-disabled pool cells' (0.6 means
	// "hedging cuts the straggler-bound wall time by at least 40%"), and
	// at least one hedge must actually have fired. The hedge-straggler
	// preset sets it.
	HedgeSpeedup float64
	// Logf, when non-nil, receives one progress line per cell.
	Logf func(format string, args ...any)
}

// Run executes the cells against the target in order and returns one
// report row per cell. The context cancels the whole sweep.
func Run(ctx context.Context, target *Target, cells []Cell, opts Options) (*Report, error) {
	if len(target.URLs) == 0 {
		return nil, errors.New("bench: target has no backend URLs")
	}
	if opts.Ops <= 0 {
		opts.Ops = 200
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	rep := NewReport()
	var hedgedWall, unhedgedWall, hedgesFired float64
	for i, cell := range cells {
		row, err := runCell(ctx, target, cell, opts, i)
		if err != nil {
			return nil, fmt.Errorf("bench: cell %d (%s): %w", i, cell.Name(), err)
		}
		rep.Benchmarks = append(rep.Benchmarks, row)
		if opts.Logf != nil {
			opts.Logf("cell %d/%d %s: %.0f jobs/s, p50 %.2fms p99 %.2fms, absorbed %.3f",
				i+1, len(cells), row.Name,
				row.Metrics["jobs/s"], row.Metrics["p50-ms"], row.Metrics["p99-ms"], row.Metrics["absorbed"])
		}
		if opts.MinAbsorbed > 0 && row.Metrics["absorbed"] < opts.MinAbsorbed {
			return rep, fmt.Errorf("bench: cell %s absorbed only %.3f of submissions (hit+coalesce), want >= %.3f — the cache/coalesce path is not carrying the load",
				row.Name, row.Metrics["absorbed"], opts.MinAbsorbed)
		}
		if cell.Pool {
			if cell.Hedge {
				hedgedWall += row.Metrics["elapsed-s"]
				hedgesFired += row.Metrics["hedges"]
			} else {
				unhedgedWall += row.Metrics["elapsed-s"]
			}
		}
	}
	if opts.HedgeSpeedup > 0 && unhedgedWall > 0 {
		ratio := hedgedWall / unhedgedWall
		if ratio >= opts.HedgeSpeedup {
			return rep, fmt.Errorf("bench: hedged cells took %.3fs vs %.3fs unhedged (ratio %.2f), want < %.2f — hedging is not absorbing the straggler",
				hedgedWall, unhedgedWall, ratio, opts.HedgeSpeedup)
		}
		if hedgesFired == 0 {
			return rep, errors.New("bench: hedge cells fired no hedges — the straggler was never speculated on")
		}
	}
	return rep, nil
}

// runCell measures one cell: scrape every backend, drive the load,
// scrape again, and fold driver-side histograms and scrape deltas into
// a row.
func runCell(ctx context.Context, target *Target, cell Cell, opts Options, cellIdx int) (Row, error) {
	cell = withCellDefaults(cell, opts)
	urls := target.URLs
	if cell.Backends > 0 && cell.Backends < len(urls) {
		urls = urls[:cell.Backends]
	}
	cell.Backends = len(urls)
	clients := make([]*client.Client, len(urls))
	for i, u := range urls {
		clients[i] = client.New(u,
			client.WithHTTPClient(target.hc),
			client.WithPollInterval(20*time.Millisecond),
			client.WithRetry(6, 50*time.Millisecond))
	}
	base := rng.Combine(opts.Seed, uint64(cellIdx)+0x63656c6c)
	ranks, err := schedule(cell, base, cell.Ops)
	if err != nil {
		return Row{}, err
	}

	// Pool cells: build the dispatch pool and compute the in-process
	// reference bytes for every catalog rank the schedule touches —
	// before the clock starts, so verification is free of charge — then
	// byte-compare every pool result against them during the run.
	var (
		pool *dispatch.Pool
		refs map[int][]byte
	)
	if cell.Pool {
		poolOpts := []dispatch.Option{
			dispatch.WithClientOptions(
				client.WithHTTPClient(target.hc),
				client.WithPollInterval(20*time.Millisecond),
				client.WithRetry(6, 50*time.Millisecond)),
			dispatch.WithHedging(cell.Hedge),
		}
		if cell.HedgeAfter > 0 {
			poolOpts = append(poolOpts, dispatch.WithHedgeAfter(cell.HedgeAfter))
		}
		pool, err = dispatch.New(urls, poolOpts...)
		if err != nil {
			return Row{}, err
		}
		local := faultroute.NewLocal()
		refs = make(map[int][]byte)
		for _, rank := range ranks {
			if _, ok := refs[rank]; ok {
				continue
			}
			res, err := local.Do(ctx, catalogSpec(cell, base, rank))
			if err != nil {
				return Row{}, fmt.Errorf("computing local reference for rank %d: %w", rank, err)
			}
			refs[rank] = res.Body
		}
	}

	before, err := scrapeAll(ctx, target.hc, urls)
	if err != nil {
		return Row{}, err
	}

	cr := &cellRunner{cell: cell, clients: clients, base: base, pool: pool, refs: refs}
	var (
		hists   = make([]*Histogram, cell.Clients)
		opErrs  atomic.Int64
		lastErr atomic.Pointer[error]
	)
	for i := range hists {
		hists[i] = &Histogram{}
	}
	run := func(slot, op int, sched time.Time) {
		err := cr.do(ctx, op, ranks[op])
		hists[slot].Record(time.Since(sched))
		if err != nil && ctx.Err() == nil {
			opErrs.Add(1)
			lastErr.Store(&err)
		}
	}

	start := time.Now()
	if cell.Rate > 0 {
		err = runOpenLoop(ctx, cell, run, start)
	} else {
		err = runClosedLoop(ctx, cell, run)
	}
	elapsed := time.Since(start)
	if err != nil {
		return Row{}, err
	}

	after, err := scrapeAll(ctx, target.hc, urls)
	if err != nil {
		return Row{}, err
	}
	delta := after.Sub(before)

	hist := &Histogram{}
	for _, h := range hists {
		hist.Merge(h)
	}
	fresh := delta.Label("faultroute_jobs_submitted_total", "outcome", "fresh")
	coalesced := delta.Label("faultroute_jobs_submitted_total", "outcome", "coalesced")
	cached := delta.Label("faultroute_jobs_submitted_total", "outcome", "cached")
	rejected := delta.Label("faultroute_jobs_submitted_total", "outcome", "rejected")
	accepted := fresh + coalesced + cached
	absorbed := 0.0
	if accepted > 0 {
		absorbed = (coalesced + cached) / accepted
	}
	failed := float64(opErrs.Load())
	if failed > 0 {
		if ep := lastErr.Load(); ep != nil && opts.Logf != nil {
			opts.Logf("cell %s: %d/%d ops failed, last error: %v", cell.Name(), opErrs.Load(), cell.Ops, *ep)
		}
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	row := Row{
		Name:       cell.Name(),
		Iterations: cell.Ops,
		Metrics: map[string]float64{
			"jobs/s":     float64(cell.Ops) / elapsed.Seconds(),
			"trials/s":   float64(cell.Ops) * float64(cell.Trials) / elapsed.Seconds(),
			"elapsed-s":  elapsed.Seconds(),
			"p50-ms":     ms(hist.Quantile(0.50)),
			"p95-ms":     ms(hist.Quantile(0.95)),
			"p99-ms":     ms(hist.Quantile(0.99)),
			"mean-ms":    ms(hist.Mean()),
			"max-ms":     ms(hist.Max()),
			"errors":     failed,
			"fresh":      fresh,
			"coalesced":  coalesced,
			"cached":     cached,
			"rejected":   rejected,
			"absorbed":   absorbed,
			"cache-hits": delta.Sum("faultroute_cache_hits_total"),
			"evictions":  delta.Sum("faultroute_cache_tier_evictions_total"),
			"http-reqs":  delta.Sum("faultroute_http_requests_total"),
		},
	}
	if pool != nil {
		st := pool.Stats()
		row.Metrics["subjobs"] = float64(st.SubJobs)
		row.Metrics["hedges"] = float64(st.Hedges)
		row.Metrics["hedge-wins"] = float64(st.HedgeWins)
		row.Metrics["hedge-cancels"] = float64(st.HedgeCancels)
		row.Metrics["peer-fills"] = float64(st.PeerFills)
	}
	return row, nil
}

// withCellDefaults resolves a cell's zero fields to the documented
// defaults.
func withCellDefaults(cell Cell, opts Options) Cell {
	if cell.Clients <= 0 {
		cell.Clients = 16
	}
	if cell.Trials <= 0 {
		cell.Trials = 32
	}
	if cell.Graph.Family == "" {
		cell.Graph = api.GraphSpec{Family: "hypercube", N: 10}
	}
	if cell.P == 0 {
		cell.P = 0.7
	}
	if cell.Catalog <= 0 {
		cell.Catalog = 16
	}
	if cell.Ops <= 0 {
		cell.Ops = opts.Ops
	}
	return cell
}

// runClosedLoop drives cell.Clients generators, each issuing ops back
// to back (with optional think time) from the shared schedule until it
// is drained. Latency is measured per op from its start.
func runClosedLoop(ctx context.Context, cell Cell, run func(slot, op int, sched time.Time)) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	for slot := 0; slot < cell.Clients; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for ctx.Err() == nil {
				op := int(next.Add(1) - 1)
				if op >= cell.Ops {
					return
				}
				run(slot, op, time.Now())
				if cell.Think > 0 {
					select {
					case <-ctx.Done():
						return
					case <-time.After(cell.Think):
					}
				}
			}
		}(slot)
	}
	wg.Wait()
	return ctx.Err()
}

// runOpenLoop schedules op arrivals at the fixed rate and hands each to
// a free generator slot; when every slot is busy the op waits, and that
// wait is part of its measured latency because the clock starts at the
// scheduled arrival, not at dispatch.
func runOpenLoop(ctx context.Context, cell Cell, run func(slot, op int, sched time.Time), start time.Time) error {
	interval := time.Duration(float64(time.Second) / cell.Rate)
	slots := make(chan int, cell.Clients)
	for i := 0; i < cell.Clients; i++ {
		slots <- i
	}
	var wg sync.WaitGroup
	for op := 0; op < cell.Ops; op++ {
		sched := start.Add(time.Duration(op) * interval)
		if d := time.Until(sched); d > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(d):
			}
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(op int, sched time.Time) {
			defer wg.Done()
			select {
			case <-ctx.Done():
				return
			case slot := <-slots:
				run(slot, op, sched)
				slots <- slot
			}
		}(op, sched)
	}
	wg.Wait()
	return ctx.Err()
}

// scrapeAll fetches and merges every backend's /v1/metrics.
func scrapeAll(ctx context.Context, hc *http.Client, urls []string) (Scrape, error) {
	merged := make(Scrape)
	for _, u := range urls {
		s, err := ScrapeURL(ctx, hc, u)
		if err != nil {
			return nil, err
		}
		merged.Merge(s)
	}
	return merged, nil
}
