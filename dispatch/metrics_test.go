package dispatch_test

// The pool's dispatch counters live in the process-wide metrics
// registry, which every serve scrape appends — so a program embedding
// both a Pool and a Service (or, as here, in-process test backends)
// exposes failover counts on GET /v1/metrics without extra wiring.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"faultroute"
	"faultroute/dispatch"
)

// scrapeCounter fetches base's /v1/metrics and returns the value of the
// unlabeled series name.
func scrapeCounter(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s has unparsable value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("scrape of %s has no series %q", base, name)
	return 0
}

func TestPoolFailoverCountersOnMetricsEndpoint(t *testing.T) {
	// The dying backend owns the first shard, so at least one shard is
	// read from and submitted to it before it dies.
	req := estimateReq(64)
	srvs, urls := reserve(t, 2)
	dying, others := startRoles(t, srvs, urls, ownerOf(t, urls, shardOf(req, 0)), 0, failAfter(3))
	healthy := others[0]

	// The counters are cumulative across the process (other tests may
	// have dispatched too), so assert deltas around this run.
	subBefore := scrapeCounter(t, healthy.srv.URL, "faultroute_dispatch_subjobs_total")
	failBefore := scrapeCounter(t, healthy.srv.URL, "faultroute_dispatch_failovers_total")
	downBefore := scrapeCounter(t, healthy.srv.URL, "faultroute_dispatch_backends_down_total")

	pool := newPool(t, []string{dying.srv.URL, healthy.srv.URL})
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
		t.Fatalf("post-failover bytes differ from local")
	}

	// Every shard is fresh, so each is submitted at least once; the
	// dying backend forces at least one re-dispatch and one down-marking.
	shards := len(dispatch.ShardRanges(req.Estimate.Trials))
	if delta := scrapeCounter(t, healthy.srv.URL, "faultroute_dispatch_subjobs_total") - subBefore; delta < float64(shards) {
		t.Errorf("dispatch recorded %v sub-jobs, want >= %d", delta, shards)
	}
	if delta := scrapeCounter(t, healthy.srv.URL, "faultroute_dispatch_failovers_total") - failBefore; delta < 1 {
		t.Errorf("dispatch recorded %v failovers, want >= 1", delta)
	}
	if delta := scrapeCounter(t, healthy.srv.URL, "faultroute_dispatch_backends_down_total") - downBefore; delta < 1 {
		t.Errorf("dispatch recorded %v backend down-markings, want >= 1", delta)
	}
}
