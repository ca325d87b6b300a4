package bench

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"faultroute/api"
	"faultroute/client"
	"faultroute/serve"
)

const exampleScrape = `# HELP faultroute_cache_hits_total Result-cache lookups that found the stored bytes.
# TYPE faultroute_cache_hits_total counter
faultroute_cache_hits_total 41
# HELP faultroute_jobs_submitted_total Job submissions by outcome.
# TYPE faultroute_jobs_submitted_total counter
faultroute_jobs_submitted_total{outcome="cached"} 7
faultroute_jobs_submitted_total{outcome="coalesced"} 30
faultroute_jobs_submitted_total{outcome="fresh"} 4
faultroute_jobs_submitted_total{outcome="rejected"} 2
# HELP faultroute_job_duration_seconds Execution latency of jobs by kind.
# TYPE faultroute_job_duration_seconds histogram
faultroute_job_duration_seconds_bucket{kind="estimate",le="0.01"} 3
faultroute_job_duration_seconds_bucket{kind="estimate",le="+Inf"} 4
faultroute_job_duration_seconds_sum{kind="estimate"} 0.0625
faultroute_job_duration_seconds_count{kind="estimate"} 4
`

func parse(t *testing.T, text string) Scrape {
	t.Helper()
	s, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseMetrics(t *testing.T) {
	s := parse(t, exampleScrape)
	cases := []struct {
		get  func() float64
		want float64
	}{
		{func() float64 { return s.Sum("faultroute_cache_hits_total") }, 41},
		{func() float64 { return s.Sum("faultroute_jobs_submitted_total") }, 43},
		{func() float64 { return s.Label("faultroute_jobs_submitted_total", "outcome", "coalesced") }, 30},
		{func() float64 { return s.Label("faultroute_jobs_submitted_total", "outcome", "rejected") }, 2},
		{func() float64 { return s.Label("faultroute_jobs_submitted_total", "outcome", "missing") }, 0},
		// Histogram child series are distinct families, never conflated.
		{func() float64 { return s.Sum("faultroute_job_duration_seconds_count") }, 4},
		{func() float64 { return s.Sum("faultroute_job_duration_seconds_sum") }, 0.0625},
	}
	for i, tc := range cases {
		if got := tc.get(); got != tc.want {
			t.Errorf("case %d: got %v, want %v", i, got, tc.want)
		}
	}
}

func TestParseMetricsRejectsMalformed(t *testing.T) {
	for _, bad := range []string{"justaname\n", "name notanumber\n"} {
		if _, err := parseMetrics(strings.NewReader(bad)); err == nil {
			t.Errorf("parseMetrics(%q) accepted malformed input", bad)
		}
	}
}

func TestScrapeSub(t *testing.T) {
	before := parse(t, exampleScrape)
	after := parse(t, strings.ReplaceAll(exampleScrape, "41", "141"))
	d := after.Sub(before)
	if got := d.Sum("faultroute_cache_hits_total"); got != 100 {
		t.Errorf("delta hits = %v, want 100", got)
	}
	if got := d.Label("faultroute_jobs_submitted_total", "outcome", "fresh"); got != 0 {
		t.Errorf("unchanged series delta = %v, want 0", got)
	}
	// A series absent before (fresh backend) counts from zero.
	d2 := after.Sub(Scrape{})
	if got := d2.Sum("faultroute_cache_hits_total"); got != 141 {
		t.Errorf("delta vs empty = %v, want 141", got)
	}
}

// TestScrapeURLAgainstService scrapes a live service after one
// estimate: every sample line the service wrote must parse to its
// value, the fresh submission must show, and a non-200 answer must be
// an error.
func TestScrapeURLAgainstService(t *testing.T) {
	svc := serve.New(serve.Options{})
	defer svc.Close()
	var (
		mu     sync.Mutex
		served []byte // the last exposition the service wrote
	)
	h := svc.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/down" + api.BasePath + "/metrics":
			// An empty body parses, so only the status can reject it.
			w.WriteHeader(http.StatusServiceUnavailable)
		case api.BasePath + "/metrics":
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			mu.Lock()
			served = rec.Body.Bytes()
			mu.Unlock()
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
		default:
			h.ServeHTTP(w, r)
		}
	}))
	defer ts.Close()
	ctx := context.Background()
	req := api.Request{Kind: api.KindEstimate, Estimate: &api.EstimateSpec{
		Graph: api.GraphSpec{Family: "hypercube", N: 6}, P: 0.7, Trials: 8, Seed: 1}}
	if _, err := client.New(ts.URL).Do(ctx, req); err != nil {
		t.Fatal(err)
	}

	s, err := ScrapeURL(ctx, http.DefaultClient, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	exposition := string(served)
	mu.Unlock()
	samples := 0
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		samples++
		cut := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseFloat(line[cut+1:], 64); err != nil || s[line[:cut]] != v {
			t.Errorf("line %q: scrape holds %v", line, s[line[:cut]])
		}
	}
	if samples == 0 || len(s) != samples {
		t.Errorf("scrape holds %d series, the exposition %d sample lines", len(s), samples)
	}
	if got := s.Label("faultroute_jobs_submitted_total", "outcome", "fresh"); got != 1 {
		t.Errorf("fresh submissions = %v, want 1", got)
	}

	if _, err := ScrapeURL(ctx, http.DefaultClient, ts.URL+"/down"); err == nil {
		t.Error("ScrapeURL accepted a 503 answer")
	}
}
