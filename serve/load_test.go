package serve_test

// A popularity-skewed load through the public client: 64 concurrent
// client.Do callers send 4,096 estimates drawn Zipf(1.1) from a
// catalog of 256 hypercube specs, and every op must return Local's
// bytes. Over the default store the service must compute each distinct
// spec exactly once, so coalescing and the cache absorb at least 90% of
// submissions. Over a store whose byte budget holds a few results it
// must evict to stay within its budget and still fail no op: every
// waiter gets its result on the exchange that waited for it, so an
// eviction between a job's finish and a later read costs no op.

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faultroute"
	"faultroute/api"
	"faultroute/client"
	"faultroute/internal/cache"
	"faultroute/internal/rng"
	"faultroute/serve"
)

const (
	loadCallers = 64
	loadCatalog = 256
	loadOps     = 4096
	loadSkew    = 1.1
	// minAbsorbed is the share of submissions that coalescing and the
	// cache must answer without a fresh computation.
	minAbsorbed = 0.9
	// boundedStoreBytes holds about eight of the catalog's results
	// (key plus bytes, about 210 each).
	boundedStoreBytes = 1800
)

// loadSpec is catalog entry rank: the same estimate with its own seed,
// so every entry has its own content address and equal work.
func loadSpec(rank int) api.Request {
	return api.Request{
		Kind: api.KindEstimate,
		Estimate: &api.EstimateSpec{
			Graph:  api.GraphSpec{Family: "hypercube", N: 8},
			P:      0.7,
			Trials: 16,
			Seed:   uint64(rank) + 1,
		},
	}
}

// draw returns loadOps ranks drawn Zipf(loadSkew) from the catalog,
// and adds Local's bytes for every entry it draws to want.
func draw(t *testing.T, seed uint64, want map[int][]byte) []int {
	t.Helper()
	z, err := rng.NewZipf(rng.NewStream(seed), loadSkew, loadCatalog)
	if err != nil {
		t.Fatal(err)
	}
	ranks := make([]int, loadOps)
	local := faultroute.NewLocal()
	for i := range ranks {
		ranks[i] = z.Next()
		if _, ok := want[ranks[i]]; ok {
			continue
		}
		res, err := local.Do(context.Background(), loadSpec(ranks[i]))
		if err != nil {
			t.Fatal(err)
		}
		want[ranks[i]] = res.Body
	}
	return ranks
}

// runLoad serves store (nil for the default) over HTTP and drives the
// ops through loadCallers concurrent callers. It returns the number of
// failed ops and the final /v1/metrics exposition. An op fails when Do
// errs or returns bytes other than Local's.
func runLoad(t *testing.T, store cache.ResultStore, want map[int][]byte, ranks []int) (failed int64, metrics string) {
	t.Helper()
	svc := serve.New(serve.Options{Executors: 4, QueueDepth: 256, Store: store})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var (
		failures atomic.Int64
		logOnce  sync.Once
		next     atomic.Int64
		wg       sync.WaitGroup
	)
	for range loadCallers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := int(next.Add(1) - 1); op < len(ranks); op = int(next.Add(1) - 1) {
				res, err := c.Do(ctx, loadSpec(ranks[op]))
				if err == nil && bytes.Equal(res.Body, want[ranks[op]]) {
					continue
				}
				failures.Add(1)
				logOnce.Do(func() { t.Logf("op %d (rank %d): err %v, %d bytes", op, ranks[op], err, len(res.Body)) })
			}
		}()
	}
	wg.Wait()
	return failures.Load(), scrape(t, ts.URL)
}

// sample returns the value of the exposition's sample for series,
// failing the test when there is none.
func sample(t *testing.T, exposition, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("series %s: %v", series, err)
			}
			return f
		}
	}
	t.Fatalf("metrics scrape has no sample for %s", series)
	return 0
}

func TestZipfLoadAbsorbedAndBounded(t *testing.T) {
	submitted := func(metrics, outcome string) float64 {
		return sample(t, metrics, `faultroute_jobs_submitted_total{outcome="`+outcome+`"}`)
	}

	t.Run("default store", func(t *testing.T) {
		want := map[int][]byte{}
		ranks := draw(t, 1, want)
		failed, metrics := runLoad(t, nil, want, ranks)
		if failed != 0 {
			t.Errorf("%d of %d ops failed or returned bytes other than Local's", failed, loadOps)
		}
		fresh := submitted(metrics, "fresh")
		absorbed := submitted(metrics, "coalesced") + submitted(metrics, "cached")
		if fresh != float64(len(want)) {
			t.Errorf("fresh = %v, want the %d distinct specs drawn", fresh, len(want))
		}
		if share := absorbed / (fresh + absorbed); share < minAbsorbed {
			t.Errorf("coalescing and the cache absorbed %.3f of submissions, want >= %v", share, minAbsorbed)
		}
	})

	t.Run("bounded store", func(t *testing.T) {
		want := map[int][]byte{}
		ranks := draw(t, 2, want)
		failed, metrics := runLoad(t, cache.NewBounded(boundedStoreBytes), want, ranks)
		if failed != 0 {
			t.Errorf("%d of %d ops failed or returned bytes other than Local's", failed, loadOps)
		}
		if ev := sample(t, metrics, `faultroute_cache_tier_evictions_total{tier="memory"}`); ev == 0 {
			t.Error("the bounded store evicted nothing")
		}
		if b := sample(t, metrics, `faultroute_cache_tier_bytes{tier="memory"}`); b > boundedStoreBytes {
			t.Errorf("memory tier holds %v bytes, budget %d", b, boundedStoreBytes)
		}
	})
}
