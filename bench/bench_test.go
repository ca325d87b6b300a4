package bench

import (
	"context"
	"testing"
	"time"

	"faultroute/api"
	"faultroute/internal/rng"
	"faultroute/serve"
)

// TestSweepAgainstInProcessService runs a real multi-cell sweep —
// closed-loop duplicate-heavy, closed-loop sharded, and open-loop —
// against a self-hosted service and checks the report: schema-valid
// rows, one per cell, with coherent throughput/latency/scrape-delta
// metrics.
func TestSweepAgainstInProcessService(t *testing.T) {
	target, err := SelfHost(serve.Options{Executors: 2, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()

	cells := []Cell{
		{Clients: 8, Trials: 8, Graph: api.GraphSpec{Family: "hypercube", N: 6}, Catalog: 4, Zipf: 1.1, Ops: 60},
		{Clients: 4, Trials: 8, Shard: 4, Graph: api.GraphSpec{Family: "hypercube", N: 6}, Catalog: 4, Zipf: 1.1, Ops: 12},
		{Clients: 8, Rate: 400, Trials: 8, Graph: api.GraphSpec{Family: "hypercube", N: 6}, Catalog: 2, Zipf: 0, Ops: 40},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := Run(ctx, target, cells, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != len(cells) {
		t.Fatalf("got %d rows for %d cells", len(rep.Benchmarks), len(cells))
	}
	data, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateReport(data); err != nil {
		t.Fatalf("emitted report is not schema-valid: %v\n%s", err, data)
	}
	for i, row := range rep.Benchmarks {
		m := row.Metrics
		if m["errors"] != 0 {
			t.Errorf("row %d (%s): %v ops failed", i, row.Name, m["errors"])
		}
		if m["jobs/s"] <= 0 || m["trials/s"] < m["jobs/s"] {
			t.Errorf("row %d (%s): incoherent throughput jobs/s=%v trials/s=%v", i, row.Name, m["jobs/s"], m["trials/s"])
		}
		if m["p50-ms"] <= 0 || m["p99-ms"] < m["p50-ms"] || m["max-ms"] < m["p99-ms"] {
			t.Errorf("row %d (%s): incoherent latency quantiles p50=%v p99=%v max=%v", i, row.Name, m["p50-ms"], m["p99-ms"], m["max-ms"])
		}
		if m["fresh"]+m["coalesced"]+m["cached"] <= 0 {
			t.Errorf("row %d (%s): scrape delta saw no submissions", i, row.Name)
		}
	}

	// The schedule is deterministic in (seed, cell index), so the exact
	// number of distinct specs each cell touched is recomputable here.
	distinct := func(cellIdx int) float64 {
		cell := withCellDefaults(cells[cellIdx], Options{Ops: 200})
		ranks, err := schedule(cell, rng.Combine(7, uint64(cellIdx)+0x63656c6c), cell.Ops)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		for _, r := range ranks {
			seen[r] = true
		}
		return float64(len(seen))
	}

	// Cell 0 is duplicate-heavy: 60 ops over at most 4 distinct specs.
	// The service computes each spec once; everything else must be
	// absorbed by coalescing or the cache, and the scrape delta must
	// show it.
	m := rep.Benchmarks[0].Metrics
	if want := distinct(0); m["fresh"] != want {
		t.Errorf("duplicate-heavy cell: fresh = %v, want the %v distinct specs", m["fresh"], want)
	}
	if m["absorbed"] < 0.9 {
		t.Errorf("duplicate-heavy cell: absorbed = %v, want >= 0.9", m["absorbed"])
	}

	// Cell 1 shards each 8-trial estimate into 4-trial sub-jobs: 2 fresh
	// shard jobs per distinct spec.
	m = rep.Benchmarks[1].Metrics
	if want := 2 * distinct(1); m["fresh"] != want {
		t.Errorf("sharded cell: fresh = %v, want %v (distinct specs x 2 shards)", m["fresh"], want)
	}
}

// TestSmokePresetBoundedStoreEvicts runs the CI smoke preset exactly as
// cmd/faultbench would — self-hosted over its byte-bounded store — and
// asserts the bounded-store contract end to end: zero op failures, the
// memory tier's resident bytes at or under the budget, and at least one
// eviction visible in the final scrape (the second cell's catalog must
// push the first cell's cold entries out).
func TestSmokePresetBoundedStoreEvicts(t *testing.T) {
	p, err := PresetByName("smoke")
	if err != nil {
		t.Fatal(err)
	}
	target, err := SelfHost(p.Serve)
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := Run(ctx, target, p.Grid.Cells(), p.Options)
	if err != nil {
		t.Fatal(err)
	}
	evictions := 0.0
	for i, row := range rep.Benchmarks {
		if row.Metrics["errors"] != 0 {
			t.Errorf("row %d (%s): %v ops failed", i, row.Name, row.Metrics["errors"])
		}
		evictions += row.Metrics["evictions"]
	}
	if evictions == 0 {
		t.Error("smoke preset evicted nothing; the store bound is not exercising the LRU")
	}

	final, err := ScrapeURL(ctx, target.hc, target.URLs[0])
	if err != nil {
		t.Fatal(err)
	}
	bytesResident := final.Label("faultroute_cache_tier_bytes", "tier", "memory")
	if bytesResident <= 0 || bytesResident > smokeCacheBytes {
		t.Errorf("memory tier holds %v bytes, want in (0, %d]", bytesResident, smokeCacheBytes)
	}
	if got := final.Label("faultroute_cache_tier_evictions_total", "tier", "memory"); got == 0 {
		t.Error("final scrape shows no memory-tier evictions")
	}
}

// TestSelfHostFleetClosesPromptly runs a pool cell, hedged, on a
// three-daemon fleet with one slowed daemon, five times over, and
// requires each Close to return within 1 s. Concurrent shard requests
// can leave the load client holding a dialed connection that never
// carried a request; unless the client closes it first, Shutdown waits
// until it is 5 s old.
func TestSelfHostFleetClosesPromptly(t *testing.T) {
	cell := Cell{Clients: 1, Ops: 1, Trials: 96, Catalog: 1,
		Graph: api.GraphSpec{Family: "hypercube", N: 6},
		Pool:  true, Hedge: true, HedgeAfter: 10 * time.Millisecond}
	for i := 0; i < 5; i++ {
		target, err := SelfHostFleet(3, serve.Options{Executors: 2, QueueDepth: 64},
			[]time.Duration{20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		_, err = Run(ctx, target, []Cell{cell}, Options{Seed: uint64(i + 1)})
		cancel()
		start := time.Now()
		closeErr := target.Close()
		took := time.Since(start)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if closeErr != nil {
			t.Fatalf("run %d: Close: %v", i, closeErr)
		}
		if took > time.Second {
			t.Fatalf("run %d: Close took %v, want at most 1s", i, took)
		}
	}
}

// TestRunAssertsMinAbsorbed pins the preset assertion path: a cold,
// all-distinct workload (catalog == ops) cannot meet a high absorbed
// floor and must fail the run with a diagnostic.
func TestRunAssertsMinAbsorbed(t *testing.T) {
	target, err := SelfHost(serve.Options{Executors: 2, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	cells := []Cell{{Clients: 4, Trials: 4, Graph: api.GraphSpec{Family: "hypercube", N: 5}, Catalog: 16, Zipf: 0, Ops: 16}}
	_, err = Run(context.Background(), target, cells, Options{Seed: 3, MinAbsorbed: 0.9})
	if err == nil {
		t.Fatal("Run accepted a cold workload under MinAbsorbed 0.9")
	}
}

// TestScheduleDeterminism pins reproducibility of the workload: the op
// sequence and catalog specs are pure functions of (seed, cell).
func TestScheduleDeterminism(t *testing.T) {
	cell := withCellDefaults(Cell{Catalog: 32, Zipf: 1.2, Ops: 500}, Options{Ops: 500})
	a, err := schedule(cell, 99, cell.Ops)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := schedule(cell, 99, cell.Ops)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: schedule diverged (%d vs %d)", i, a[i], b[i])
		}
	}
	c, _ := schedule(cell, 100, cell.Ops)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
	r1 := catalogSpec(cell, 7, 3)
	r2 := catalogSpec(cell, 7, 3)
	if *r1.Estimate != *r2.Estimate {
		t.Fatal("catalogSpec is not deterministic")
	}
	if k1, _ := api.Key(r1); k1 == "" {
		t.Fatal("catalog spec does not compile to a content address")
	}
}

// TestGridCells pins the cartesian expansion and the default axes.
func TestGridCells(t *testing.T) {
	if got := len((Grid{}).Cells()); got != 1 {
		t.Fatalf("zero grid expands to %d cells, want 1", got)
	}
	g := Grid{Clients: []int{10, 100}, Catalogs: []int{1, 8, 64}, Shards: []int{0, 4}}
	if got := len(g.Cells()); got != 12 {
		t.Fatalf("2x3x2 grid expands to %d cells, want 12", got)
	}
	for _, c := range g.Cells() {
		if c.Trials != 32 || c.Graph.Family != "hypercube" {
			t.Fatalf("cell defaults not applied: %+v", c)
		}
	}
}

// TestPresets ensures every named preset expands to a runnable grid and
// the lookup rejects unknown names.
func TestPresets(t *testing.T) {
	for _, p := range Presets() {
		if p.Name == "" || p.Description == "" {
			t.Fatalf("preset missing name/description: %+v", p)
		}
		if len(p.Grid.Cells()) == 0 {
			t.Fatalf("preset %s expands to no cells", p.Name)
		}
	}
	if _, err := PresetByName("millions-of-users"); err != nil {
		t.Fatal(err)
	}
	if _, err := PresetByName("nope"); err == nil {
		t.Fatal("PresetByName accepted an unknown preset")
	}
}
