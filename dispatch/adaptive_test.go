package dispatch_test

// Tests of the adaptive layers through the public surface: straggler
// hedging (byte identity + counters), live membership (joiners admitted
// and used, leavers drained), and cooldown recovery via Health.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faultroute"
	"faultroute/api"
	"faultroute/client"
	"faultroute/dispatch"
)

func TestPoolHedgingByteIdenticalToLocal(t *testing.T) {
	// Three backends, one pathologically slow. With a tight hedge floor
	// every shard stuck behind the straggler is speculatively re-run on a
	// fast sibling; whatever mixture of primaries and hedges wins, the
	// merged bytes must equal the in-process run, in under 0.6x the wall
	// time of an unhedged twin. The straggler owns the first shard of
	// both, so at least one shard of each is submitted to it first, and
	// the twin's other seed means no stored result answers it. The twin
	// runs first: the hedged run's losers are canceled in the background
	// after Do returns, and one still asleep on the straggler would
	// delay the twin and inflate the baseline.
	req := estimateReq(40)
	srvs, urls := reserve(t, 3)
	slow := ownerOf(t, urls, shardOf(req, 0))
	startRoles(t, srvs, urls, slow, 300*time.Millisecond, nil)
	twin := ownedBy(t, urls, slow, req, req.Estimate.Seed+1)
	pool := newPool(t, urls, dispatch.WithHedgeAfter(30*time.Millisecond))
	ctx := context.Background()

	run := func(p *dispatch.Pool, r api.Request) time.Duration {
		t.Helper()
		want, err := faultroute.NewLocal().Do(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		got, err := p.Do(ctx, r)
		took := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("pool bytes differ from local:\n got %s\nwant %s", got.Body, want.Body)
		}
		return took
	}
	unhedged := run(newPool(t, urls, dispatch.WithHedging(false)), twin)
	hedged := run(pool, req)
	if hedged.Seconds() >= 0.6*unhedged.Seconds() {
		t.Errorf("hedged run took %v, its unhedged twin %v: want under 0.6x — hedging is not absorbing the straggler", hedged, unhedged)
	}

	st := pool.Stats()
	if st.Hedges == 0 {
		t.Fatal("no hedges fired against a 300ms-delayed backend with a 30ms hedge floor")
	}
	if st.HedgeWins == 0 {
		t.Fatal("hedges fired but none won against a 300ms straggler")
	}
	// Losing attempts are canceled remotely in the background; with the
	// straggler still asleep when the race settles, at least one DELETE
	// must land. Poll briefly — the cancel goroutines outlive Do.
	deadline := time.Now().Add(2 * time.Second)
	for pool.Stats().HedgeCancels == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no losing attempt was canceled on its backend")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestPoolHedgeLoserCancelNamesItsLatestJob(t *testing.T) {
	// The slow owner forgets the first job it acknowledges: its first
	// submit is answered with a job ID its engine never issued, and the
	// stream ends there, so the watch resubmits. The resubmission is the
	// job the owner actually runs, and the hedge on the successor beats
	// it: the DELETE that cancels the losing attempt must name that job,
	// not the forgotten one.
	req := estimateReq(8) // one whole sub-job
	srvs, urls := reserve(t, 2)
	owner := ownerOf(t, urls, req)
	var (
		forgot  atomic.Bool
		mu      sync.Mutex
		deletes []string
	)
	slow, _ := startRoles(t, srvs, urls, owner, 10*time.Second, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch {
			case r.Method == http.MethodPost && forgot.CompareAndSwap(false, true):
				w.Header().Set("Content-Type", "text/event-stream")
				io.WriteString(w, "event: submitted\ndata: {\"job\":{\"id\":\"forgotten\",\"state\":\"queued\",\"total\":8}}\n\n")
				return
			case r.Method == http.MethodDelete:
				mu.Lock()
				deletes = append(deletes, r.URL.Path)
				mu.Unlock()
			}
			next.ServeHTTP(w, r)
		})
	})
	pool := newPool(t, urls, dispatch.WithHedgeAfter(200*time.Millisecond))
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
		t.Fatalf("pool bytes differ from local:\n got %s\nwant %s", got.Body, want.Body)
	}
	if !forgot.Load() {
		t.Fatal("the owner was never submitted to")
	}
	// The loser's DELETE is sent in the background.
	deadline := time.Now().Add(2 * time.Second)
	for pool.Stats().HedgeCancels == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stats %+v: no DELETE canceled the losing attempt", pool.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(deletes) != 1 || deletes[0] == api.BasePath+"/jobs/forgotten" {
		t.Fatalf("the owner received DELETEs %v, want one naming the resubmitted job", deletes)
	}
	st, err := client.New(slow.srv.URL).Status(ctx, strings.TrimPrefix(deletes[0], api.BasePath+"/jobs/"))
	if err != nil || st.State != api.JobCanceled {
		t.Fatalf("the DELETEd job: status %+v, %v; want canceled", st, err)
	}
}

func TestPoolResolverAdmitsJoinerMidSweep(t *testing.T) {
	// The pool starts on one backend; the resolver then grows the set and
	// the next job must both use the joiner and stay byte-identical.
	//
	// A different spec for the second job: the first job's results are
	// stored at the first backend, and a repeat would be answered from
	// there without dispatching anything. The joiner owns the first shard
	// of the second job, so that job must send the joiner work.
	req2 := estimateReq(24)
	req2.Estimate.Seed = 11
	var joinerSubmits atomic.Int64
	srvs, addrs := reserve(t, 2)
	b2, others := startRoles(t, srvs, addrs, ownerOf(t, addrs, shardOf(req2, 0)), 0, countSubmits(&joinerSubmits))
	b1 := others[0]

	var (
		mu   sync.Mutex
		urls = []string{b1.srv.URL}
	)
	resolve := func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), urls...)
	}
	pool, err := dispatch.New(nil, fastOpts(dispatch.WithResolver(resolve))...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	req := estimateReq(24)
	want, err := faultroute.NewLocal().Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Body, want.Body) {
		t.Fatalf("single-backend pool bytes differ from local")
	}
	if n := len(pool.Backends()); n != 1 {
		t.Fatalf("pool sees %d backends before the join, want 1", n)
	}

	mu.Lock()
	urls = append(urls, b2.srv.URL)
	mu.Unlock()

	want2, err := faultroute.NewLocal().Do(ctx, req2)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := pool.Do(ctx, req2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2.Body, want2.Body) {
		t.Fatalf("post-join pool bytes differ from local")
	}
	if n := len(pool.Backends()); n != 2 {
		t.Fatalf("pool sees %d backends after the join, want 2", n)
	}
	if joinerSubmits.Load() == 0 {
		t.Fatal("joined backend received no sub-jobs in the job after its admission")
	}
}

func TestPoolResolverDrainsRemovedBackend(t *testing.T) {
	// Backend 2 owns the first shard of the first job, so it gets work
	// while it is a member.
	req := estimateReq(24)
	var removedSubmits atomic.Int64
	srvs, addrs := reserve(t, 2)
	b2, others := startRoles(t, srvs, addrs, ownerOf(t, addrs, shardOf(req, 0)), 0, countSubmits(&removedSubmits))
	b1 := others[0]

	var (
		mu   sync.Mutex
		urls = []string{b1.srv.URL, b2.srv.URL}
	)
	resolve := func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), urls...)
	}
	pool, err := dispatch.New(nil, fastOpts(dispatch.WithResolver(resolve))...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if _, err := pool.Do(ctx, req); err != nil {
		t.Fatal(err)
	}
	if removedSubmits.Load() == 0 {
		t.Fatal("backend 2 got no sub-jobs while still a member")
	}

	mu.Lock()
	urls = urls[:1]
	mu.Unlock()
	beforeRemoval := removedSubmits.Load()

	req2 := estimateReq(24)
	req2.Estimate.Seed = 17
	want, err := faultroute.NewLocal().Do(ctx, req2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.Do(ctx, req2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Body, want.Body) {
		t.Fatalf("post-removal pool bytes differ from local")
	}
	if n := len(pool.Backends()); n != 1 {
		t.Fatalf("pool sees %d backends after the removal, want 1", n)
	}
	if after := removedSubmits.Load(); after != beforeRemoval {
		t.Fatalf("drained backend received %d new sub-jobs after its removal", after-beforeRemoval)
	}
}

func TestPoolHealthRecoversCooldownBackend(t *testing.T) {
	// A backend that failed a sub-job sits in cooldown; a successful
	// Health probe must lift the cooldown immediately instead of letting
	// the mark expire on its own. The flaky backend owns the first shard
	// of the request, so the first run submits to it (and marks it down),
	// and the survivor computes and stores that shard instead.
	req := estimateReq(24)
	flaky := newHealable() // fails every submission until healed
	var b1Submits atomic.Int64
	srvs, urls := reserve(t, 2)
	b1, _ := startRoles(t, srvs, urls, ownerOf(t, urls, shardOf(req, 0)), 0, func(next http.Handler) http.Handler {
		return countSubmits(&b1Submits)(flaky.wrap(next))
	})
	pool := newPool(t, urls, dispatch.WithCooldown(time.Hour)) // the probe, not the clock, must recover it
	ctx := context.Background()

	if _, err := pool.Do(ctx, req); err != nil {
		t.Fatal(err) // b2 absorbs every failover
	}
	if b1Submits.Load() == 0 {
		t.Fatal("the flaky owner was never submitted to, so it never entered its cooldown")
	}

	flaky.heal()
	var recovered bool
	for _, h := range pool.Health(ctx) {
		if h.URL == b1.srv.URL && h.Err == nil {
			recovered = true
		}
	}
	if !recovered {
		t.Fatal("healed backend still failing its health probe")
	}

	// The recovered backend must take sub-jobs again within the next job
	// — an hour-long cooldown would have parked it otherwise. The next job
	// is a fresh spec whose first shard the recovered backend owns, so
	// that shard is submitted there unless the backend still cools down.
	// (A repeat of the first job would prove nothing: the survivor, the
	// owner's successor, holds its shards and answers them.)
	beforeHeal := b1Submits.Load()
	if _, err := pool.Do(ctx, ownedBy(t, urls, b1.srv.URL, estimateReq(24), 23)); err != nil {
		t.Fatal(err)
	}
	if b1Submits.Load() == beforeHeal {
		t.Fatal("recovered backend received no sub-jobs after a successful health probe")
	}
}

// healable is a failure injector that rejects every POST /v1/jobs until
// healed.
type healable struct {
	healthy atomic.Bool
}

func newHealable() *healable { return &healable{} }

func (h *healable) heal() { h.healthy.Store(true) }

func (h *healable) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !h.healthy.Load() && r.Method == http.MethodPost {
			http.Error(w, `{"error":"injected failure"}`, http.StatusInternalServerError)
			return
		}
		next.ServeHTTP(w, r)
	})
}
