// Package bench reads a faultrouted daemon's /v1/metrics exposition:
// ScrapeURL fetches and parses it into a Scrape, whose Sub, Sum and
// Label turn two scrapes into the counter deltas of the work between
// them. cmd/frbench brackets each serving workload with a scrape per
// backend this way, so the service reports on itself next to what the
// benchmark measures from outside.
package bench

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"faultroute/api"
)

// Scrape is one parsed /v1/metrics exposition: every sample keyed by
// its full series string (family name plus its sorted label set,
// exactly as rendered), so byte-stable scrapes diff cleanly.
type Scrape map[string]float64

// parseMetrics parses a Prometheus text-format exposition. Comment and
// blank lines are skipped; a malformed sample line is an error (a
// reader must never silently drop the series it asserts on).
func parseMetrics(r io.Reader) (Scrape, error) {
	s := make(Scrape)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut <= 0 {
			return nil, fmt.Errorf("bench: malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bench: malformed metrics value in %q: %w", line, err)
		}
		s[line[:cut]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// ScrapeURL fetches and parses base's /v1/metrics endpoint.
func ScrapeURL(ctx context.Context, hc *http.Client, base string) (Scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(base, "/")+api.BasePath+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("bench: scraping %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bench: scraping %s: status %d", base, resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// family returns the series' family name (the part before the label
// set, or before the value for unlabeled series).
func family(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// Sum returns the sum of every sample in the given family, across all
// label combinations.
func (s Scrape) Sum(name string) float64 {
	total := 0.0
	for series, v := range s {
		if family(series) == name {
			total += v
		}
	}
	return total
}

// Label returns the sum of the family's samples whose label set
// contains label=value.
func (s Scrape) Label(name, label, value string) float64 {
	needle := label + `="` + value + `"`
	total := 0.0
	for series, v := range s {
		if family(series) != name {
			continue
		}
		i := strings.IndexByte(series, '{')
		if i < 0 {
			continue
		}
		if strings.Contains(series[i:], needle) {
			total += v
		}
	}
	return total
}

// Sub returns the per-series difference s - before. Series absent from
// before count from zero (a freshly booted backend); series absent
// from s are dropped. Meaningful for counters; gauges are snapshots
// and should be read from s directly.
func (s Scrape) Sub(before Scrape) Scrape {
	out := make(Scrape, len(s))
	for series, v := range s {
		out[series] = v - before[series]
	}
	return out
}
