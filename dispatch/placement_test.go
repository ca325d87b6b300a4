package dispatch_test

// Placement tests through the public surface: a repeated sharded
// estimate costs one GET per shard, sent to that shard's owner, at any
// fleet size, and a sub-job its owner lost to a hedge or a failover is
// read from the owner's successor without a submit. Also the helpers the other suites use to decide which
// backend owns which sub-job: placement hashes the backends' URLs, and
// httptest picks random ports, so a test that needs a particular
// backend to get work reads the ranking first and assigns roles from it.

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faultroute"
	"faultroute/api"
	"faultroute/dispatch"
)

// countSubmits wraps a backend handler, counting POST /v1/jobs calls.
func countSubmits(n *atomic.Int64) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
				n.Add(1)
			}
			next.ServeHTTP(w, r)
		})
	}
}

// reserve opens n loopback listeners that serve nothing yet. Their URLs
// fix the placement of every key, so a test can rank its sub-jobs over
// them and then start each one, with startOn, in the role it needs.
func reserve(t *testing.T, n int) ([]*httptest.Server, []string) {
	t.Helper()
	srvs := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range srvs {
		srvs[i] = httptest.NewUnstartedServer(nil)
		t.Cleanup(srvs[i].Close) // for a listener a failing test never started
		urls[i] = "http://" + srvs[i].Listener.Addr().String()
	}
	return srvs, urls
}

// startRoles starts every reserved server as a plain backend, except
// the one at url, which gets delay and wrap (see startOn). It returns
// that backend and the others, in reserve order.
func startRoles(t *testing.T, srvs []*httptest.Server, urls []string, url string, delay time.Duration, wrap func(http.Handler) http.Handler) (*testBackend, []*testBackend) {
	t.Helper()
	var (
		special *testBackend
		others  []*testBackend
	)
	for i, srv := range srvs {
		if urls[i] == url {
			special = startOn(t, srv, delay, wrap)
		} else {
			others = append(others, startOn(t, srv, 0, nil))
		}
	}
	return special, others
}

// ownerOf returns the URL among urls that owns req's content key.
func ownerOf(t *testing.T, urls []string, req api.Request) string {
	t.Helper()
	key, err := api.Key(req)
	if err != nil {
		t.Fatal(err)
	}
	return dispatch.Rank(urls, key)[0]
}

// ownedBy returns req with the first seed from seed on whose shard
// [0, 4) url owns: a fresh spec that sends url work.
func ownedBy(t *testing.T, urls []string, url string, req api.Request, seed uint64) api.Request {
	t.Helper()
	spec := *req.Estimate
	req.Estimate = &spec
	for spec.Seed = seed; spec.Seed < seed+64; spec.Seed++ {
		if ownerOf(t, urls, shardOf(req, 0, 4)) == url {
			return req
		}
	}
	t.Fatalf("%s owns shard [0, 4) of no seed in [%d, %d)", url, seed, seed+64)
	return req
}

// shardOf returns the sub-job a Pool dispatches for trials
// [offset, offset+count) of the estimate req.
func shardOf(req api.Request, offset, count int) api.Request {
	spec := *req.Estimate
	spec.Shard = &api.ShardSpec{Offset: offset, Count: count}
	return api.Request{Kind: api.KindEstimate, Estimate: &spec, Workers: req.Workers}
}

// requestLog wraps a backend handler, counting POST /v1/jobs calls and
// GET /v1/results/{key} calls per key.
type requestLog struct {
	mu    sync.Mutex
	posts int
	gets  map[string]int
}

func (l *requestLog) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l.mu.Lock()
		switch key, ok := strings.CutPrefix(r.URL.Path, api.BasePath+"/results/"); {
		case r.Method == http.MethodPost && r.URL.Path == api.BasePath+"/jobs":
			l.posts++
		case r.Method == http.MethodGet && ok:
			l.gets[key]++
		}
		l.mu.Unlock()
		next.ServeHTTP(w, r)
	})
}

func (l *requestLog) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.posts, l.gets = 0, map[string]int{}
}

func TestPoolRepeatIsOneGETPerShard(t *testing.T) {
	// A fresh Pool repeating a sharded estimate the fleet already holds
	// sends exactly one GET /v1/results per shard, to that shard's owner,
	// and submits nothing: the requests a cached shard costs do not grow
	// with the fleet.
	ctx := context.Background()
	req := estimateReq(30)
	want, err := faultroute.NewLocal().Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("backends=%d", n), func(t *testing.T) {
			logs := make([]*requestLog, n)
			urls := make([]string, n)
			for i := range logs {
				logs[i] = &requestLog{gets: map[string]int{}}
				urls[i] = newBackend(t, logs[i].wrap).srv.URL
			}
			// Warm the fleet: every shard is computed and stored at its
			// owner. Hedging is off so that no owner's attempt can lose a
			// race and be canceled before its result is stored.
			warm := newPool(t, urls, dispatch.WithShardTrials(4), dispatch.WithHedging(false))
			if _, err := warm.Do(ctx, req); err != nil {
				t.Fatal(err)
			}
			for _, l := range logs {
				l.reset()
			}

			fillsBefore := scrapeCounter(t, urls[0], "faultroute_dispatch_peer_fills_total")
			pool := newPool(t, urls, dispatch.WithShardTrials(4))
			var last api.Event
			got, err := pool.Watch(ctx, req, func(ev api.Event) { last = ev })
			if err != nil {
				t.Fatal(err)
			}
			if got.Key != want.Key || !bytes.Equal(got.Body, want.Body) {
				t.Fatalf("repeat differs from local:\n got %s %s\nwant %s %s", got.Key, got.Body, want.Key, want.Body)
			}
			if last.State != api.JobDone || last.Done != int64(req.Estimate.Trials) {
				t.Fatalf("final event %+v, want done with %d trials", last, req.Estimate.Trials)
			}

			// 30 trials in shards of 4 are eight sub-jobs.
			var keys []string
			for off := 0; off < req.Estimate.Trials; off += 4 {
				key, err := api.Key(shardOf(req, off, min(4, req.Estimate.Trials-off)))
				if err != nil {
					t.Fatal(err)
				}
				keys = append(keys, key)
			}
			shards := len(keys)
			wantGets := make([]map[string]int, n)
			for i := range wantGets {
				wantGets[i] = map[string]int{}
			}
			for k, owner := range dispatch.Owners(urls, keys) {
				for i, u := range urls {
					if u == owner {
						wantGets[i][keys[k]] = 1
					}
				}
			}
			for i, l := range logs {
				l.mu.Lock()
				if l.posts != 0 {
					t.Errorf("backend %d received %d POST /v1/jobs on the repeat, want 0", i, l.posts)
				}
				if !maps.Equal(l.gets, wantGets[i]) {
					t.Errorf("backend %d received GET /v1/results %v, want one per shard it owns %v", i, l.gets, wantGets[i])
				}
				l.mu.Unlock()
			}
			if st := pool.Stats(); st.PeerFills != uint64(shards) || st.SubJobs != 0 {
				t.Errorf("repeat stats %+v, want %d fills and no sub-jobs", st, shards)
			}
			if delta := scrapeCounter(t, urls[0], "faultroute_dispatch_peer_fills_total") - fillsBefore; delta != float64(shards) {
				t.Errorf("peer fills delta = %v, want %d", delta, shards)
			}
		})
	}
}

func TestPoolRepeatAfterOwnerLostSubJobSubmitsNothing(t *testing.T) {
	// The owner does not compute the sub-job — a hedge overtakes it, or it
	// fails the submission and the sub-job fails over — so its result is
	// stored at the owner's successor alone: a DELETE settles the hedge
	// race before the slow owner stores anything. The successor is the
	// second member the stored read asks, so a fresh Pool's repeat reads
	// the owner (a miss), then the successor (a hit), and submits nothing.
	ctx := context.Background()
	req := estimateReq(8)
	want, err := faultroute.NewLocal().Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		delay time.Duration
		wrap  func(http.Handler) http.Handler
		opts  []dispatch.Option
		lost  func(dispatch.PoolStats) bool
	}{
		{"hedge", time.Second, nil,
			[]dispatch.Option{dispatch.WithHedgeAfter(30 * time.Millisecond)},
			func(st dispatch.PoolStats) bool { return st.HedgeWins == 1 && st.HedgeCancels == 1 }},
		{"failover", 0, newHealable().wrap,
			[]dispatch.Option{dispatch.WithHedging(false)},
			func(st dispatch.PoolStats) bool { return st.Failovers == 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srvs, urls := reserve(t, 3)
			ranked := dispatch.Rank(urls, want.Key)
			logs := map[string]*requestLog{}
			for i, srv := range srvs {
				l := &requestLog{gets: map[string]int{}}
				logs[urls[i]] = l
				if urls[i] == ranked[0] {
					owner := l.wrap
					if tc.wrap != nil {
						owner = func(next http.Handler) http.Handler { return l.wrap(tc.wrap(next)) }
					}
					startOn(t, srv, tc.delay, owner)
				} else {
					startOn(t, srv, 0, l.wrap)
				}
			}
			// One shard spans every trial, so the estimate is one sub-job
			// under the request's own key.
			opts := append([]dispatch.Option{dispatch.WithShardTrials(req.Estimate.Trials)}, tc.opts...)
			first := newPool(t, urls, opts...)
			got, err := first.Do(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Body, want.Body) {
				t.Fatalf("first run differs from local:\n got %s\nwant %s", got.Body, want.Body)
			}
			// The DELETE of a hedge race's loser is sent in the background.
			deadline := time.Now().Add(2 * time.Second)
			for !tc.lost(first.Stats()) {
				if time.Now().After(deadline) {
					t.Fatalf("first run stats %+v: the owner did not lose the sub-job", first.Stats())
				}
				time.Sleep(5 * time.Millisecond)
			}
			for _, l := range logs {
				l.reset()
			}

			pool := newPool(t, urls, dispatch.WithShardTrials(req.Estimate.Trials))
			got, err = pool.Do(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Body, want.Body) {
				t.Fatalf("repeat differs from local:\n got %s\nwant %s", got.Body, want.Body)
			}
			for i, u := range ranked {
				wantGets := map[string]int{}
				if i < 2 {
					wantGets[want.Key] = 1
				}
				l := logs[u]
				l.mu.Lock()
				if l.posts != 0 {
					t.Errorf("rank %d backend received %d POST /v1/jobs on the repeat, want 0", i, l.posts)
				}
				if !maps.Equal(l.gets, wantGets) {
					t.Errorf("rank %d backend received GET /v1/results %v, want %v", i, l.gets, wantGets)
				}
				l.mu.Unlock()
			}
			if st := pool.Stats(); st.PeerFills != 1 || st.SubJobs != 0 {
				t.Errorf("repeat stats %+v, want one fill and no sub-jobs", st)
			}
		})
	}
}

func TestPoolPassesOverDownOwner(t *testing.T) {
	// A dead backend owns shard [0, 4). Once a failed health probe has
	// marked it down, the pool neither reads from it nor submits to it:
	// the next-ranked backend takes its shards.
	req := estimateReq(24)
	var served atomic.Int64
	srvs, urls := reserve(t, 2)
	startRoles(t, srvs, urls, ownerOf(t, urls, shardOf(req, 0, 4)), 0, func(http.Handler) http.Handler {
		return http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
			served.Add(1)
			panic(http.ErrAbortHandler)
		})
	})
	pool := newPool(t, urls, dispatch.WithShardTrials(4))
	ctx := context.Background()
	pool.Health(ctx)
	probed := served.Load()
	if probed == 0 {
		t.Fatal("the health probe never reached the dead owner")
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
	if n := served.Load() - probed; n != 0 {
		t.Fatalf("the down owner received %d requests while cooling down, want 0", n)
	}
}
