package dispatch_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faultroute"
	"faultroute/api"
	"faultroute/client"
	"faultroute/dispatch"
	"faultroute/serve"
)

// testBackend is one in-process faultrouted service on a loopback port.
type testBackend struct {
	svc *serve.Service
	srv *httptest.Server
}

func (b *testBackend) close() {
	b.srv.Close()
	b.svc.Close()
}

// newBackend boots a backend, optionally wrapping its handler.
func newBackend(t *testing.T, wrap func(http.Handler) http.Handler) *testBackend {
	t.Helper()
	return startOn(t, httptest.NewUnstartedServer(nil), 0, wrap)
}

// startOn boots a backend on an unstarted server (see reserve) whose
// every fresh task sleeps delay first, optionally wrapping its handler.
func startOn(t *testing.T, srv *httptest.Server, delay time.Duration, wrap func(http.Handler) http.Handler) *testBackend {
	t.Helper()
	svc := serve.New(serve.Options{Executors: 2, Workers: 2, TaskDelay: delay})
	h := http.Handler(svc.Handler())
	if wrap != nil {
		h = wrap(h)
	}
	srv.Config.Handler = h
	srv.Start()
	b := &testBackend{svc: svc, srv: srv}
	t.Cleanup(b.close)
	return b
}

// fastOpts keeps test dispatches snappy: minimal backoff, which also
// paces a client's resubmission of a job whose answer ended early.
func fastOpts(extra ...dispatch.Option) []dispatch.Option {
	return append([]dispatch.Option{
		dispatch.WithClientOptions(client.WithRetry(1, time.Millisecond)),
		dispatch.WithCooldown(time.Minute),
	}, extra...)
}

func newPool(t *testing.T, urls []string, opts ...dispatch.Option) *dispatch.Pool {
	t.Helper()
	p, err := dispatch.New(urls, fastOpts(opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// estimateReq is the shared estimate workload of the identity tests.
func estimateReq(trials int) api.Request {
	return api.Request{
		Kind: api.KindEstimate,
		Estimate: &api.EstimateSpec{
			Graph:  api.GraphSpec{Family: "hypercube", N: 7},
			P:      0.6,
			Trials: trials,
			Seed:   3,
		},
	}
}

func TestNewRejectsEmptyBackendList(t *testing.T) {
	if _, err := dispatch.New(nil); err == nil {
		t.Fatal("New accepted an empty backend list")
	}
}

func TestNewDropsDuplicateBackends(t *testing.T) {
	// A URL listed twice is one backend. Kept twice, it would be its own
	// successor: a stored-read miss would ask it twice, and a straggler
	// could be hedged onto the daemon already running it. Construction
	// is not membership churn, so it counts no join.
	var results, submits atomic.Int64
	b := newBackend(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch {
			case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, api.BasePath+"/results/"):
				results.Add(1)
			case r.Method == http.MethodPost:
				submits.Add(1)
			}
			next.ServeHTTP(w, r)
		})
	})
	const joined = "faultroute_dispatch_members_joined_total"
	before := scrapeCounter(t, b.srv.URL, joined)
	pool := newPool(t, dispatch.ParseBackends(b.srv.URL+", "+b.srv.URL))
	if got := pool.Backends(); len(got) != 1 || got[0] != b.srv.URL {
		t.Fatalf("Backends() = %v, want [%s]", got, b.srv.URL)
	}
	if n := scrapeCounter(t, b.srv.URL, joined) - before; n != 0 {
		t.Fatalf("New counted %v joins", n)
	}
	req := estimateReq(8) // one whole sub-job
	want, err := faultroute.NewLocal().Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Body, want.Body) {
		t.Fatalf("pool bytes differ from local:\n got %s\nwant %s", got.Body, want.Body)
	}
	if results.Load() != 1 || submits.Load() != 1 {
		t.Fatalf("a fresh sub-job cost %d stored reads and %d submits, want 1 each", results.Load(), submits.Load())
	}
}

func TestPoolShardedEstimateByteIdenticalToLocal(t *testing.T) {
	b1, b2 := newBackend(t, nil), newBackend(t, nil)
	pool := newPool(t, []string{b1.srv.URL, b2.srv.URL})
	ctx := context.Background()

	req := estimateReq(100)
	want, err := faultroute.NewLocal().Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != want.Key {
		t.Fatalf("pool key %s != local key %s", got.Key, want.Key)
	}
	if !bytes.Equal(got.Body, want.Body) {
		t.Fatalf("pool bytes differ from local:\n got %s\nwant %s", got.Body, want.Body)
	}
}

func TestPoolExperimentsByteIdenticalToLocal(t *testing.T) {
	// The acceptance pin: E1/E3/E7 through a 2-backend pool are
	// byte-identical to faultroute.Local (and therefore to
	// `routebench -exp <id> -format json`).
	b1, b2 := newBackend(t, nil), newBackend(t, nil)
	pool := newPool(t, []string{b1.srv.URL, b2.srv.URL})
	local := faultroute.NewLocal()
	ctx := context.Background()
	for _, id := range []string{"E1", "E3", "E7"} {
		req := api.Request{
			Kind:       api.KindExperiment,
			Experiment: &api.ExperimentSpec{ID: id, Seed: 1, Scale: "quick"},
		}
		want, err := local.Do(ctx, req)
		if err != nil {
			t.Fatalf("%s local: %v", id, err)
		}
		got, err := pool.Do(ctx, req)
		if err != nil {
			t.Fatalf("%s pool: %v", id, err)
		}
		if !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("%s: pool bytes differ from local:\n got %s\nwant %s", id, got.Body, want.Body)
		}
	}
}

func TestPoolPercolationByteIdenticalToLocal(t *testing.T) {
	b1, b2 := newBackend(t, nil), newBackend(t, nil)
	pool := newPool(t, []string{b1.srv.URL, b2.srv.URL})
	ctx := context.Background()
	req := api.Request{
		Kind: api.KindPercolation,
		Percolation: &api.PercolationSpec{
			Graph:  api.GraphSpec{Family: "mesh", Side: 8},
			Ps:     []float64{0.3, 0.5, 0.7},
			Trials: 4,
		},
	}
	want, err := faultroute.NewLocal().Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Body, want.Body) {
		t.Fatalf("pool bytes differ from local:\n got %s\nwant %s", got.Body, want.Body)
	}
}

// failAfter wraps a handler so that once `limit` requests have been
// served, every later request aborts its connection — the HTTP shape of
// a backend crashing mid-run.
func failAfter(limit int64) func(http.Handler) http.Handler {
	var served atomic.Int64
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if served.Add(1) > limit {
				panic(http.ErrAbortHandler)
			}
			next.ServeHTTP(w, r)
		})
	}
}

func TestPoolFailoverAfterBackendDiesMidRun(t *testing.T) {
	// One backend serves a handful of requests and then drops every
	// connection: shards assigned to it (including ones it had started)
	// must be re-dispatched to the survivor, and the merged result must
	// still be byte-identical to Local.
	healthy := newBackend(t, nil)
	dying := newBackend(t, failAfter(3))
	pool := newPool(t, []string{dying.srv.URL, healthy.srv.URL})
	ctx := context.Background()

	req := estimateReq(64)
	want, err := faultroute.NewLocal().Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Body, want.Body) {
		t.Fatalf("post-failover bytes differ from local:\n got %s\nwant %s", got.Body, want.Body)
	}
}

// dieAfterSubmitted wraps a handler so that the first submit answered
// with an event stream is cut right after its submitted event, and
// every later request aborts its connection: a backend that crashes
// once it has accepted a job.
func dieAfterSubmitted() func(http.Handler) http.Handler {
	var dead atomic.Bool
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if dead.Load() {
				panic(http.ErrAbortHandler)
			}
			next.ServeHTTP(&crashWriter{ResponseWriter: w, dead: &dead}, r)
		})
	}
}

// crashWriter marks its backend dead once it has delivered a submitted
// event, and aborts every write after that.
type crashWriter struct {
	http.ResponseWriter
	dead      *atomic.Bool
	submitted bool
}

func (w *crashWriter) Write(b []byte) (int, error) {
	if w.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	w.submitted = w.submitted || bytes.Contains(b, []byte("event: submitted"))
	return w.ResponseWriter.Write(b)
}

func (w *crashWriter) Flush() {
	w.ResponseWriter.(http.Flusher).Flush()
	if w.submitted {
		w.dead.Store(true)
	}
}

func TestPoolFailoverExperimentWholeJob(t *testing.T) {
	// Whole-job dispatches (experiments) fail over too: a backend that
	// dies after accepting the job loses it to the survivor. The dying
	// backend is the one that owns the experiment's key, so the Pool
	// reads from it and submits to it first; it dies mid-stream, after
	// acknowledging the job, and the resubmissions that follow fail.
	req := api.Request{
		Kind:       api.KindExperiment,
		Experiment: &api.ExperimentSpec{ID: "E1", Seed: 1, Scale: "quick"},
	}
	srvs, urls := reserve(t, 2)
	dying, others := startRoles(t, srvs, urls, ownerOf(t, urls, req), 0, dieAfterSubmitted())
	pool := newPool(t, []string{dying.srv.URL, others[0].srv.URL})
	ctx := context.Background()
	want, err := faultroute.NewLocal().Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Body, want.Body) {
		t.Fatalf("failover experiment bytes differ from local")
	}
	if st := pool.Stats(); st.Failovers == 0 {
		t.Fatalf("stats %+v: the job never failed over from its dying owner", st)
	}
}

func TestPoolFailsWhenEveryBackendIsDown(t *testing.T) {
	dead1 := newBackend(t, failAfter(0))
	dead2 := newBackend(t, failAfter(0))
	pool := newPool(t, []string{dead1.srv.URL, dead2.srv.URL})
	if _, err := pool.Do(context.Background(), estimateReq(8)); err == nil {
		t.Fatal("Do succeeded with every backend down")
	}
}

func TestPoolRejectsInvalidRequestLocally(t *testing.T) {
	// Validation happens in the Pool's own Compile — no backend round
	// trip, so even a fully dead cluster rejects garbage crisply.
	dead := newBackend(t, failAfter(0))
	pool := newPool(t, []string{dead.srv.URL})
	req := estimateReq(8)
	req.Estimate.P = 1.5
	if _, err := pool.Do(context.Background(), req); err == nil {
		t.Fatal("invalid request accepted")
	}
}

func TestPoolWatchAggregatesMonotoneProgress(t *testing.T) {
	b1, b2 := newBackend(t, nil), newBackend(t, nil)
	pool := newPool(t, []string{b1.srv.URL, b2.srv.URL})
	var (
		mu     sync.Mutex
		events []api.Event
	)
	req := estimateReq(64)
	res, err := pool.Watch(context.Background(), req, func(ev api.Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Body) == 0 {
		t.Fatal("empty result body")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) < 2 {
		t.Fatalf("want leading+trailing events at least, got %d", len(events))
	}
	first, last := events[0], events[len(events)-1]
	if first.State != api.JobRunning || first.Done != 0 {
		t.Fatalf("leading event = %+v, want running/0", first)
	}
	if trials := int64(req.Estimate.Trials); last.State != api.JobDone || last.Done != trials || last.Total != trials {
		t.Fatalf("trailing event = %+v, want done %d/%d", last, trials, trials)
	}
	var prev int64 = -1
	for _, ev := range events {
		if ev.Done < prev {
			t.Fatalf("progress went backwards: %d after %d", ev.Done, prev)
		}
		prev = ev.Done
	}
}

func TestPoolDoBatchMatchesIndividualDo(t *testing.T) {
	b1, b2 := newBackend(t, nil), newBackend(t, nil)
	pool := newPool(t, []string{b1.srv.URL, b2.srv.URL})
	ctx := context.Background()
	reqs := []api.Request{estimateReq(40), estimateReq(56), estimateReq(72)}
	got, err := pool.DoBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	local := faultroute.NewLocal()
	for i, req := range reqs {
		want, err := local.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[i].Body, want.Body) {
			t.Fatalf("batch result %d differs from local", i)
		}
	}
}

func TestPoolHealthReportsPerBackend(t *testing.T) {
	up := newBackend(t, nil)
	down := newBackend(t, failAfter(0))
	pool := newPool(t, []string{up.srv.URL, down.srv.URL})
	hs := pool.Health(context.Background())
	if len(hs) != 2 {
		t.Fatalf("want 2 reports, got %d", len(hs))
	}
	if hs[0].Err != nil || !hs[0].Health.OK {
		t.Fatalf("healthy backend reported unhealthy: %+v", hs[0])
	}
	if hs[1].Err == nil {
		t.Fatal("dead backend reported healthy")
	}
	if got := pool.Backends(); got[0] != up.srv.URL || got[1] != down.srv.URL {
		t.Fatalf("Backends() = %v", got)
	}
}

func TestPoolDeterministicJobFailureIsFinal(t *testing.T) {
	// A spec that fails deterministically (conditioning never succeeds)
	// must NOT burn failover attempts: the error comes back as a job
	// failure, not an exhausted-backends error.
	b := newBackend(t, nil)
	pool := newPool(t, []string{b.srv.URL})
	req := estimateReq(4)
	req.Estimate.P = 0 // no edges survive: {src ~ dst} never holds
	req.Estimate.MaxTries = 1
	_, err := pool.Do(context.Background(), req)
	if err == nil {
		t.Fatal("expected a deterministic failure")
	}
	var jobErr *client.JobError
	if !errors.As(err, &jobErr) {
		t.Fatalf("want a JobError, got %T: %v", err, err)
	}
	if jobErr.Status.State != api.JobFailed {
		t.Fatalf("job state = %s, want failed", jobErr.Status.State)
	}
}
