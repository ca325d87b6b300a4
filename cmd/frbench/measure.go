package main

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"time"

	"faultroute"
	"faultroute/api"
	"faultroute/bench"
	"faultroute/dispatch"
	"faultroute/internal/stats"
)

// config sizes one run. The CLI runs cliConfig; tests shrink it.
type config struct {
	seed    uint64
	seconds float64 // the -seconds the op count was sized from
	// ops is the op count of an untraced window. Each of a traced run's
	// two phases runs half as many, but never fewer than digestOps.
	ops int
	// digestOps is the op prefix the result digest covers.
	digestOps int
	// setups is how many times an untraced run opens its workload;
	// setup_s is the median.
	setups int
	// passOps is how many requests the engine pass replays; the compile
	// pass times 16 times as many.
	passOps int
}

// pinOps is the CLI's digestOps, the prefix the pinned digests cover,
// and the fewest ops an untraced window runs, so that at least ten
// samples lie beyond op_p99_ms.
const pinOps = 1000

// cliConfig sizes a run so it lasts about seconds on the machine the
// workload's rate was measured on: every run of a workload at the same
// -seconds does the same work, whatever the speed of the code under test.
func cliConfig(w workload, seed uint64, seconds float64) config {
	return config{seed: seed, seconds: seconds, ops: max(pinOps, int(math.Round(w.rate*seconds))),
		digestOps: pinOps, setups: 11, passOps: 16}
}

// nSlices is how many consecutive op ranges a window is cut into (see
// windowStats).
const nSlices = 10

// metric is a reported quantity with its unit.
type metric struct{ name, unit string }

// endToEnd and perLayer are the metrics an untraced and a traced run
// report on their result line, in BENCHMARK.json's order (a test
// keeps the two in step).
var (
	endToEnd = []metric{
		{"setup_s", "s"},
		{"ops_per_s", "1/s"},
		{"op_p50_ms", "ms"},
		{"op_p99_ms", "ms"},
		{"heap_peak_mb", "MB"},
	}
	perLayer = append([]metric{
		{"core.trial_ms", "ms"},
		{"route.route_ms", "ms"},
		{"core.condition_share", "ratio"},
		{"core.merge_us", "us"},
		{"runner.efficiency", "ratio"},
		{"core.tries_per_trial", "count"},
		{"route.probes_per_trial", "count"},
		{"percolation.connected_vertices_per_trial", "count"},
		{"percolation.connected_edges_per_trial", "count"},
		{"api.compile_us", "us"},
		{"client.http_reqs_per_op", "count"},
		{"client.rtt_share", "ratio"},
		{"serve.handler_share", "ratio"},
		{"cache.calls_per_op", "count"},
		{"cache.busy_share", "ratio"},
		{"jobs.executor_busy_share", "ratio"},
		{"serve.fresh_share", "ratio"},
		{"serve.absorbed", "ratio"},
		{"dispatch.subjobs_per_op", "count"},
		{"dispatch.peer_fills_per_op", "count"},
		{"dispatch.hedges_per_op", "count"},
		{"dispatch.failovers_per_op", "count"},
		{"dispatch.peer_probe_miss_per_op", "count"},
		{"dispatch.backend_skew", "ratio"},
		{"runtime.allocs_per_op", "count"},
		{"runtime.alloc_kb_per_op", "KiB"},
		{"runtime.gc_per_s", "1/s"},
		{"trace.overhead", "ratio"},
	}, expShares()...)
)

func expShares() []metric {
	var ms []metric
	for _, id := range experimentIDs() {
		ms = append(ms, metric{"exp." + id + "_share", "ratio"})
	}
	return ms
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run of one workload.
type report struct {
	Workload  string  `json:"workload"`
	Traced    bool    `json:"traced"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Digest is the SHA-256 over the SHA-256 of each result body of the
	// first digestOps ops, in op order.
	Digest string   `json:"digest"`
	Errors []string `json:"errors,omitempty"`
	// Metrics holds the metrics of the result line: endToEnd for an
	// untraced run, perLayer for a traced one.
	Metrics map[string]value `json:"metrics"`
	// Detail holds everything else measured: failure share, tail sample
	// count, per-call latencies of the traced layers.
	Detail map[string]value `json:"detail"`
}

// runWorkload runs one workload untraced (end-to-end metrics) or traced
// (per-layer metrics). spans, when non-nil, receives a traced run's
// spans.
func runWorkload(ctx context.Context, w workload, cfg config, traced bool, spans func(*tracer, *report) error) (*report, error) {
	rep := &report{Workload: w.name, Traced: traced, Seed: cfg.seed, Seconds: cfg.seconds,
		Metrics: map[string]value{}, Detail: map[string]value{}}
	cal := newCalibrator()
	if !traced {
		sess, setupS, setupRaw, err := openMedian(ctx, w, cfg, cal)
		if err != nil {
			return nil, err
		}
		ph, err := measure(ctx, w, cfg, sess, cfg.ops, nil, cal)
		sess.close()
		if err != nil {
			return nil, err
		}
		if err := ph.verify(ctx, w.reference, cfg.digestOps); err != nil {
			return nil, err
		}
		rep.add(ph)
		rep.fillEndToEnd(ph, setupS, setupRaw)
		rep.checkPin(w, cfg)
		return rep, nil
	}

	// The reference phase runs untraced on a session of its own, so its
	// throughput is the base of trace.overhead and its allocations are
	// the program's alone.
	ops := max(cfg.digestOps, cfg.ops/2)
	sess, err := w.open(ctx, cfg.seed, nil)
	if err != nil {
		return nil, err
	}
	ref, err := measure(ctx, w, cfg, sess, ops, nil, cal)
	sess.close()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	sess, err = w.open(ctx, cfg.seed, tr)
	if err != nil {
		return nil, err
	}
	ph, err := measure(ctx, w, cfg, sess, ops, tr, cal)
	sess.close()
	if err != nil {
		return nil, err
	}
	for _, p := range []*phase{ref, ph} {
		if err := p.verify(ctx, w.reference, cfg.digestOps); err != nil {
			return nil, err
		}
		rep.add(p)
	}
	if ref.digest != ph.digest {
		rep.fail(fmt.Errorf("traced digest %s differs from untraced %s", ph.digest, ref.digest))
	}
	reqs, err := engineRequests(w, cfg)
	if err != nil {
		return nil, err
	}
	ep, err := runEnginePass(ctx, reqs)
	if err != nil {
		return nil, err
	}
	compileUs, err := compilePass(w, cfg)
	if err != nil {
		return nil, err
	}
	rep.fillLayers(ref, ph, tr, ep, compileUs)
	rep.checkPin(w, cfg)
	if spans != nil {
		if err := spans(tr, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// openMedian opens the workload cfg.setups times and returns the last
// session with the median set-up time, scaled to the reference machine
// by the speed measured around each set-up, and raw.
func openMedian(ctx context.Context, w workload, cfg config, cal *calibrator) (*session, float64, float64, error) {
	var scaledTimes, rawTimes []float64
	speed := cal.speed()
	for i := 0; ; i++ {
		runtime.GC() // no collection debt from the previous session
		start := time.Now()
		sess, err := w.open(ctx, cfg.seed, nil)
		if err != nil {
			return nil, 0, 0, err
		}
		t := time.Since(start).Seconds()
		last := i+1 >= cfg.setups
		if !last {
			sess.close()
		}
		after := cal.speed()
		rawTimes = append(rawTimes, t)
		scaledTimes = append(scaledTimes, t*(speed+after)/2)
		speed = after
		if last {
			return sess, median(scaledTimes), median(rawTimes), nil
		}
	}
}

// phase is one measured window.
type phase struct {
	ops    int
	ranges []opRange
	recs   []opRec // by op index
	heap   []heapSample
	digest string

	allocs, allocBytes, gcs uint64

	scrapes   []bench.Scrape // per-backend /v1/metrics deltas
	executors float64        // job executors across backends
	pooled    bool           // ops went through a dispatch.Pool
	pool      dispatch.PoolStats

	mu     sync.Mutex
	failed int
	errs   []string
	keys   map[string]*keyEntry
}

// opRange is ops [lo, hi) of a window, run from t0 to t1 (nanoseconds
// from the window's start) on a machine of the given speed.
type opRange struct {
	lo, hi int
	t0, t1 int64
	speed  float64
}

// opRec is one op's start and end, in nanoseconds from the window's
// start.
type opRec struct {
	start, end int64
	label      string // the experiment ID of an experiment op
}

func (r opRec) ms() float64 { return float64(r.end-r.start) / 1e6 }

type heapSample struct {
	t     int64 // nanoseconds from the window's start
	bytes uint64
}

// keyEntry is the first result seen under a content address.
type keyEntry struct {
	sum [sha256.Size]byte
	op  int
	n   int // ops that returned this key
	req api.Request
}

// maxErrs bounds the failure messages a report keeps.
const maxErrs = 5

func (ph *phase) fail(err error) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.failed++
	if len(ph.errs) < maxErrs {
		ph.errs = append(ph.errs, err.Error())
	}
}

// accept checks one op's result: the first result under a key is
// decoded and sanity-checked, every later one must be byte-identical.
func (ph *phase) accept(op int, req api.Request, res api.Result, prefix [][sha256.Size]byte) error {
	sum := sha256.Sum256(res.Body)
	if op < len(prefix) {
		prefix[op] = sum
	}
	ph.mu.Lock()
	e, seen := ph.keys[res.Key]
	if !seen {
		ph.keys[res.Key] = &keyEntry{sum: sum, op: op, n: 1, req: req}
	} else {
		e.n++
	}
	ph.mu.Unlock()
	if seen {
		if e.sum != sum {
			return fmt.Errorf("result under key %s differs from op %d's", res.Key, e.op)
		}
		return nil
	}
	return checkResult(req, res)
}

// measure runs one window of ops ops, cut into nSlices consecutive
// ranges. Within a range the workload's callers claim ops in schedule
// order, each waiting for its op's reply before the next; between ranges
// the system is idle while cal measures the machine's speed.
func measure(ctx context.Context, w workload, cfg config, sess *session, ops int, tr *tracer, cal *calibrator) (*phase, error) {
	next, err := w.schedule(cfg.seed)
	if err != nil {
		return nil, err
	}
	ph := &phase{keys: make(map[string]*keyEntry), recs: make([]opRec, ops)}
	prefix := make([][sha256.Size]byte, min(ops, cfg.digestOps))
	before, err := scrapeAll(ctx, sess.backends)
	if err != nil {
		return nil, err
	}
	var poolBefore dispatch.PoolStats
	if sess.pool != nil {
		poolBefore = sess.pool.Stats()
	}
	if tr != nil {
		tr.reset()
	}

	runtime.GC() // the window starts from a collected heap
	rtBefore := readRuntime()
	start := time.Now()
	stopHeap := make(chan struct{})
	heap := sampleHeap(start, stopHeap)
	var mu sync.Mutex // guards next and claimed: the schedule is sequential
	claimed := 0
	speed := cal.speed()
	k := min(nSlices, ops)
	for r := range k {
		rg := opRange{lo: r * ops / k, hi: (r + 1) * ops / k, t0: time.Since(start).Nanoseconds()}
		claim := func() (int, api.Request, bool) {
			mu.Lock()
			defer mu.Unlock()
			if claimed == rg.hi || ctx.Err() != nil {
				return 0, api.Request{}, false
			}
			claimed++
			return claimed - 1, next(), true
		}
		var wg sync.WaitGroup
		for range w.callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					op, req, ok := claim()
					if !ok {
						return
					}
					ph.do(ctx, sess, tr, start, op, req, prefix)
				}
			}()
		}
		wg.Wait()
		rg.t1 = time.Since(start).Nanoseconds()
		after := cal.speed()
		rg.speed = (speed + after) / 2
		speed = after
		ph.ranges = append(ph.ranges, rg)
		if ctx.Err() != nil {
			break
		}
	}
	close(stopHeap)
	ph.heap = <-heap
	rtAfter := readRuntime()
	ph.allocs = rtAfter[0] - rtBefore[0]
	ph.allocBytes = rtAfter[1] - rtBefore[1]
	ph.gcs = rtAfter[2] - rtBefore[2]
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("window stopped after %d of %d ops: %w", claimed, ops, err)
	}
	ph.ops = claimed

	h := sha256.New()
	for _, s := range prefix {
		h.Write(s[:])
	}
	ph.digest = hex.EncodeToString(h.Sum(nil))

	after, err := scrapeAll(ctx, sess.backends)
	if err != nil {
		return nil, err
	}
	for i := range after {
		ph.scrapes = append(ph.scrapes, after[i].Sub(before[i]))
		ph.executors += after[i].Sum("faultroute_jobs_executors")
	}
	if sess.pool != nil {
		ph.pooled = true
		a := sess.pool.Stats()
		ph.pool = dispatch.PoolStats{
			SubJobs:   a.SubJobs - poolBefore.SubJobs,
			Failovers: a.Failovers - poolBefore.Failovers,
			Hedges:    a.Hedges - poolBefore.Hedges,
			PeerFills: a.PeerFills - poolBefore.PeerFills,
		}
	}
	return ph, nil
}

// do runs and checks one op and records its timing.
func (ph *phase) do(ctx context.Context, sess *session, tr *tracer, start time.Time, op int, req api.Request, prefix [][sha256.Size]byte) {
	var ref opRef
	if tr != nil {
		ref = opRef{span: tr.newID(), op: op}
		ctx = withOp(ctx, ref)
	}
	t0 := time.Now()
	res, err := sess.runner.Do(ctx, req)
	t1 := time.Now()
	if tr != nil {
		tr.record(ref.span, 0, op, "op", t0)
	}
	if err == nil {
		err = ph.accept(op, req, res, prefix)
	}
	if err != nil {
		ph.fail(fmt.Errorf("op %d: %w", op, err))
	}
	rec := opRec{start: t0.Sub(start).Nanoseconds(), end: t1.Sub(start).Nanoseconds()}
	if req.Experiment != nil {
		rec.label = req.Experiment.ID
	}
	ph.recs[op] = rec // each op index is written by one caller only
}

// busy is the time the window spent running ops, calibration pauses
// excluded.
func (ph *phase) busy() time.Duration {
	var ns int64
	for _, rg := range ph.ranges {
		ns += rg.t1 - rg.t0
	}
	return time.Duration(ns)
}

// windowStats are a window's end-to-end figures, scaled to the
// reference machine: each range's throughput is divided by the machine's
// speed around it and each op's latency multiplied by it. Throughput and
// heap peak are medians over the ranges, so a burst of interference from
// elsewhere on the machine moves them little; the latency percentiles
// are over every op of the window.
type windowStats struct {
	opsPerS, p50, p99, heapPeak float64
	// tail is the number of samples beyond p99.
	tail int
	// speed is the machine's mean speed over the ranges.
	speed float64
	// raw holds the unscaled throughput, p50 and p99.
	raw struct{ opsPerS, p50, p99 float64 }
}

func (ph *phase) stats() windowStats {
	var (
		ws                     windowStats
		rates, rawRates, peaks []float64
		scaled                 = make([]float64, 0, len(ph.recs))
		raw                    = make([]float64, 0, len(ph.recs))
	)
	for _, rg := range ph.ranges {
		for _, rec := range ph.recs[rg.lo:rg.hi] {
			raw = append(raw, rec.ms())
			scaled = append(scaled, rec.ms()*rg.speed)
		}
		rate := float64(rg.hi-rg.lo) / (float64(rg.t1-rg.t0) / 1e9)
		rawRates = append(rawRates, rate)
		rates = append(rates, rate/rg.speed)
		ws.speed += rg.speed / float64(len(ph.ranges))
		// The sampler's first sample is at t=0 and its last after every
		// range ended, so each range has a sample at or before its end;
		// the sample current when the range starts counts too.
		var peak uint64
		for i, hs := range ph.heap {
			if hs.t > rg.t1 {
				break
			}
			if hs.t >= rg.t0 || i+1 == len(ph.heap) || ph.heap[i+1].t > rg.t0 {
				peak = max(peak, hs.bytes)
			}
		}
		peaks = append(peaks, float64(peak))
	}
	sort.Float64s(scaled)
	sort.Float64s(raw)
	ws.opsPerS, ws.heapPeak = median(rates), median(peaks)
	ws.p50, ws.p99 = stats.Quantile(scaled, 0.50), stats.Quantile(scaled, 0.99)
	ws.tail = len(scaled) - sort.SearchFloat64s(scaled, math.Nextafter(ws.p99, math.Inf(1)))
	ws.raw.opsPerS = median(rawRates)
	ws.raw.p50, ws.raw.p99 = stats.Quantile(raw, 0.50), stats.Quantile(raw, 0.99)
	return ws
}

// quantile returns the q-th quantile of xs, which it leaves unsorted.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Quantile(s, q)
}

// verify recomputes results with a fresh faultroute.Local and
// byte-compares them; a mismatch fails every op that returned the key.
func (ph *phase) verify(ctx context.Context, scope refScope, digestOps int) error {
	if scope == refNone {
		return nil
	}
	entries := make([]*keyEntry, 0, len(ph.keys))
	keys := make(map[*keyEntry]string, len(ph.keys))
	for k, e := range ph.keys {
		if scope == refAll || e.op < digestOps {
			entries = append(entries, e)
			keys[e] = k
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].op < entries[j].op })
	local := faultroute.NewLocal()
	for _, e := range entries {
		res, err := local.Do(ctx, e.req)
		if err != nil {
			return fmt.Errorf("reference for op %d: %w", e.op, err)
		}
		if res.Key != keys[e] || sha256.Sum256(res.Body) != e.sum {
			ph.mu.Lock()
			ph.failed += e.n
			if len(ph.errs) < maxErrs {
				ph.errs = append(ph.errs, fmt.Sprintf("op %d: result differs from faultroute.Local's", e.op))
			}
			ph.mu.Unlock()
		}
	}
	return nil
}

func scrapeAll(ctx context.Context, urls []string) ([]bench.Scrape, error) {
	out := make([]bench.Scrape, len(urls))
	for i, u := range urls {
		s, err := bench.ScrapeURL(ctx, http.DefaultClient, u)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// readRuntime returns the cumulative heap allocations (objects, bytes)
// and completed GC cycles.
func readRuntime() [3]uint64 {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return [3]uint64{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

// sampleHeap reads the bytes of live and not-yet-swept heap objects
// every 10ms until stop closes, then sends the samples.
func sampleHeap(start time.Time, stop <-chan struct{}) <-chan []heapSample {
	out := make(chan []heapSample, 1)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		var samples []heapSample
		for {
			metrics.Read(s)
			samples = append(samples, heapSample{t: time.Since(start).Nanoseconds(), bytes: s[0].Value.Uint64()})
			select {
			case <-stop:
				metrics.Read(s)
				out <- append(samples, heapSample{t: time.Since(start).Nanoseconds(), bytes: s[0].Value.Uint64()})
				return
			case <-t.C:
			}
		}
	}()
	return out
}

func (r *report) fail(err error) {
	r.Failed++
	if len(r.Errors) < maxErrs {
		r.Errors = append(r.Errors, err.Error())
	}
}

// add folds a phase's op and failure counts into the report.
func (r *report) add(ph *phase) {
	r.Attempted += ph.ops
	r.Failed += ph.failed
	for _, e := range ph.errs {
		if len(r.Errors) < maxErrs {
			r.Errors = append(r.Errors, e)
		}
	}
	r.Digest = ph.digest
	r.Correct = r.Failed == 0
}

// checkPin compares the digest with the workload's pinned one when the
// run covers the pinned seed and prefix.
func (r *report) checkPin(w workload, cfg config) {
	if cfg.seed == 1 && cfg.digestOps == pinOps && r.Digest != w.pin {
		r.fail(fmt.Errorf("digest %s differs from the pinned seed-1 digest %s", r.Digest, w.pin))
	}
	r.Correct = r.Failed == 0
}

// metric sets one of the result line's metrics; its unit is the declared one.
func (r *report) metric(name string, v float64) {
	for _, ms := range [][]metric{endToEnd, perLayer} {
		for _, m := range ms {
			if m.name == name {
				r.Metrics[name] = value{Value: v, Unit: m.unit}
				return
			}
		}
	}
	panic("frbench: undeclared metric " + name)
}

func (r *report) detail(name, unit string, v float64) {
	r.Detail[name] = value{Value: v, Unit: unit}
}

// fillEndToEnd fills the untraced run's metrics; setupS and setupRaw
// are the scaled and raw median set-up times.
func (r *report) fillEndToEnd(ph *phase, setupS, setupRaw float64) {
	ws := ph.stats()
	r.metric("setup_s", setupS)
	r.metric("ops_per_s", ws.opsPerS)
	r.metric("op_p50_ms", ws.p50)
	r.metric("op_p99_ms", ws.p99)
	r.metric("heap_peak_mb", ws.heapPeak/1e6)

	r.detail("setup_s_raw", "s", setupRaw)
	r.detail("ops_per_s_raw", "1/s", ws.raw.opsPerS)
	r.detail("op_p50_ms_raw", "ms", ws.raw.p50)
	r.detail("op_p99_ms_raw", "ms", ws.raw.p99)
	r.detail("machine_speed", "ratio", ws.speed)
	r.detail("failed_frac", "ratio", float64(ph.failed)/float64(max(ph.ops, 1)))
	r.detail("op_p99_tail_samples", "count", float64(ws.tail))
	r.detail("window_s", "s", ph.busy().Seconds())
	r.detail("heap_max_mb", "MB", float64(slices.MaxFunc(ph.heap, func(a, b heapSample) int { return cmp.Compare(a.bytes, b.bytes) }).bytes)/1e6)
	if len(ph.scrapes) > 0 {
		sv := serveCounts(ph)
		r.detail("serve.fresh_share", "ratio", ratio(sv.fresh, sv.submitted))
	}
}

// serveStats sums the services' /v1/metrics deltas over a phase.
type serveStats struct {
	fresh, absorbed, submitted float64
	execSum, execCount         float64
	freshPerBackend            []float64
}

func serveCounts(ph *phase) serveStats {
	var s serveStats
	for _, d := range ph.scrapes {
		fresh := d.Label("faultroute_jobs_submitted_total", "outcome", "fresh")
		absorbed := d.Label("faultroute_jobs_submitted_total", "outcome", "coalesced") +
			d.Label("faultroute_jobs_submitted_total", "outcome", "cached")
		s.fresh += fresh
		s.absorbed += absorbed
		s.submitted += fresh + absorbed
		s.execSum += d.Sum("faultroute_job_duration_seconds_sum")
		s.execCount += d.Sum("faultroute_job_duration_seconds_count")
		s.freshPerBackend = append(s.freshPerBackend, fresh)
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fillLayers fills the traced run's metrics: ref is the untraced
// reference phase, ph the traced one.
func (r *report) fillLayers(ref, ph *phase, tr *tracer, ep enginePass, compileUs float64) {
	trials := float64(ep.trials)
	r.metric("core.trial_ms", ratio(float64(ep.trialNs), trials)/1e6)
	r.metric("route.route_ms", ratio(float64(ep.routeNs), trials)/1e6)
	r.metric("core.condition_share", ratio(float64(ep.trialNs-ep.routeNs), float64(ep.trialNs)))
	r.metric("core.merge_us", ratio(float64(ep.mergeNs), float64(ep.merges))/1e3)
	r.metric("runner.efficiency", ratio(float64(ep.trialNs), float64(ep.parallelNs)*float64(ep.workers)))
	r.metric("core.tries_per_trial", ratio(float64(ep.tries), trials))
	r.metric("route.probes_per_trial", ratio(ep.probes, float64(ep.accepted)))
	r.metric("percolation.connected_vertices_per_trial", ratio(float64(ep.vertices), trials))
	r.metric("percolation.connected_edges_per_trial", ratio(float64(ep.edges), trials))
	r.metric("api.compile_us", compileUs)

	ops := float64(ph.ops)
	_, opNs := tr.total("op")
	clientN, clientNs := tr.total("client.")
	_, serveNs := tr.total("serve.")
	cacheN, cacheNs := tr.total("cache.")
	r.metric("client.http_reqs_per_op", ratio(float64(clientN), ops))
	r.metric("client.rtt_share", ratio(float64(clientNs), float64(opNs)))
	r.metric("serve.handler_share", ratio(float64(serveNs), float64(opNs)))
	r.metric("cache.calls_per_op", ratio(float64(cacheN), ops))
	r.metric("cache.busy_share", ratio(float64(cacheNs), float64(opNs)))

	sv := serveCounts(ph)
	r.metric("jobs.executor_busy_share", ratio(sv.execSum, ph.executors*ph.busy().Seconds()))
	r.metric("serve.fresh_share", ratio(sv.fresh, sv.submitted))
	r.metric("serve.absorbed", ratio(sv.absorbed, sv.submitted))
	r.metric("dispatch.subjobs_per_op", ratio(float64(ph.pool.SubJobs), ops))
	r.metric("dispatch.peer_fills_per_op", ratio(float64(ph.pool.PeerFills), ops))
	r.metric("dispatch.hedges_per_op", ratio(float64(ph.pool.Hedges), ops))
	r.metric("dispatch.failovers_per_op", ratio(float64(ph.pool.Failovers), ops))
	probeMisses, skew := 0.0, 0.0
	if ph.pooled {
		probeMisses = float64(tr.probeMisses.Load())
		skew = slices.Max(sv.freshPerBackend) / max(slices.Min(sv.freshPerBackend), 1)
	}
	r.metric("dispatch.peer_probe_miss_per_op", ratio(probeMisses, ops))
	r.metric("dispatch.backend_skew", skew)

	refOps := float64(ref.ops)
	r.metric("runtime.allocs_per_op", ratio(float64(ref.allocs), refOps))
	r.metric("runtime.alloc_kb_per_op", ratio(float64(ref.allocBytes), refOps)/1024)
	r.metric("runtime.gc_per_s", float64(ref.gcs)/ref.busy().Seconds())
	r.metric("trace.overhead", 1-ph.stats().opsPerS/ref.stats().opsPerS)

	byTable := map[string][]float64{}
	total := 0.0
	for _, rec := range ph.recs {
		if rec.label != "" {
			byTable[rec.label] = append(byTable[rec.label], rec.ms())
			total += rec.ms()
		}
	}
	for _, id := range experimentIDs() {
		sum := 0.0
		for _, v := range byTable[id] {
			sum += v
		}
		r.metric("exp."+id+"_share", ratio(sum, total))
		if len(byTable[id]) > 0 {
			r.detail("exp."+id+"_ms", "ms", median(byTable[id]))
		}
	}

	for _, name := range []string{"submit", "events", "status", "result", "cancel"} {
		if n, ns := tr.total("client." + name); n > 0 {
			r.detail("client."+name+"_rtt_ms", "ms", float64(ns)/float64(n)/1e6)
		}
		if n, ns := tr.total("serve." + name); n > 0 {
			r.detail("serve."+name+"_handler_ms", "ms", float64(ns)/float64(n)/1e6)
		}
	}
	for _, name := range []string{"get", "put", "has"} {
		if n, ns := tr.total("cache." + name); n > 0 {
			r.detail("cache."+name+"_us", "us", float64(ns)/float64(n)/1e3)
		}
	}
	if sv.execCount > 0 {
		r.detail("jobs.exec_ms", "ms", sv.execSum/sv.execCount*1e3)
	}
	tr.mu.Lock()
	r.detail("trace.spans", "count", float64(len(tr.spans)+tr.dropped))
	tr.mu.Unlock()
}

// engineRequests returns the estimate requests the engine pass replays.
func engineRequests(w workload, cfg config) ([]api.Request, error) {
	if w.engine != nil {
		return w.engine(cfg.seed), nil
	}
	next, err := w.schedule(cfg.seed)
	if err != nil {
		return nil, err
	}
	reqs := make([]api.Request, cfg.passOps)
	for i := range reqs {
		reqs[i] = next()
	}
	return reqs, nil
}

// compilePass returns the mean time of api.Compile over the first
// 16*passOps requests of the schedule.
func compilePass(w workload, cfg config) (float64, error) {
	next, err := w.schedule(cfg.seed)
	if err != nil {
		return 0, err
	}
	n := 16 * cfg.passOps
	var ns int64
	for i := 0; i < n; i++ {
		req := next()
		start := time.Now()
		if _, err := api.Compile(req); err != nil {
			return 0, err
		}
		ns += time.Since(start).Nanoseconds()
	}
	return float64(ns) / float64(n) / 1e3, nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
