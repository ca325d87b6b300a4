//go:build !race

// Allocation-ceiling guards for the trial hot path. PR 4 replaced the
// per-trial map churn (probe memos, parent tables, reached sets,
// conditioning scratch) with pooled, epoch-stamped arena structures,
// cutting the E1 workload from 162 to ~29 allocs/op and E3 from 425 to
// ~99 (see BENCH_pr4.json). These tests pin a ceiling between the two
// regimes so map churn cannot silently return: they fail long before a
// regression to per-trial maps, while leaving headroom over today's
// steady state for GC-timing noise (sync.Pool contents are released at
// GC). Excluded under -race, which changes allocation behavior.

package faultroute_test

import (
	"context"
	"math"
	"net/http/httptest"
	"runtime"
	"testing"

	"faultroute"
	"faultroute/api"
	"faultroute/client"
	"faultroute/internal/cache"
	"faultroute/internal/graph"
	"faultroute/internal/overlay"
	"faultroute/internal/percolation"
	"faultroute/internal/route"
	"faultroute/internal/sim"
	"faultroute/serve"
)

// allocsPerEstimate measures steady-state allocations of one
// single-trial Local.Estimate of the given spec, averaged over runs
// after a pool warm-up.
func allocsPerEstimate(t *testing.T, spec faultroute.Spec, src, dst faultroute.Vertex) float64 {
	t.Helper()
	seed := uint64(0)
	run := func() {
		seed++
		local := faultroute.NewLocal(faultroute.WithWorkers(1))
		if _, err := local.Estimate(context.Background(), spec, src, dst, 1, 400, seed); err != nil &&
			err != faultroute.ErrConditioning {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		run() // warm the arena pool
	}
	return testing.AllocsPerRun(30, run)
}

func TestAllocCeilingE1HypercubePhase(t *testing.T) {
	g, err := faultroute.NewHypercube(10)
	if err != nil {
		t.Fatal(err)
	}
	spec := faultroute.Spec{
		Graph:  g,
		P:      math.Pow(10, -0.55),
		Router: faultroute.NewPathFollowRouter(),
		Mode:   faultroute.ModeLocal,
	}
	// Seed-era baseline: 162 allocs/op. Arena engine: ~29.
	const ceiling = 80
	if got := allocsPerEstimate(t, spec, 0, g.Antipode(0)); got > ceiling {
		t.Fatalf("E1 trial allocates %.1f/op, ceiling %d — map churn is back?", got, ceiling)
	}
}

func TestAllocCeilingE3MeshLinear(t *testing.T) {
	g, err := faultroute.NewMesh(2, 60)
	if err != nil {
		t.Fatal(err)
	}
	u, err := g.VertexAt(10, 30)
	if err != nil {
		t.Fatal(err)
	}
	v, err := g.VertexAt(50, 30)
	if err != nil {
		t.Fatal(err)
	}
	spec := faultroute.Spec{
		Graph:  g,
		P:      0.6,
		Router: faultroute.NewPathFollowRouter(),
		Mode:   faultroute.ModeLocal,
	}
	// Seed-era baseline: 425 allocs/op. Arena engine: ~99.
	const ceiling = 220
	if got := allocsPerEstimate(t, spec, u, v); got > ceiling {
		t.Fatalf("E3 trial allocates %.1f/op, ceiling %d — map churn is back?", got, ceiling)
	}
}

// TestAllocCeilingConnected pins percolation.Connected's promise of no
// allocations in steady state: the bidirectional search borrows its
// side map and both queues from the pooled arena. A ceiling of 1
// alloc/op (steady state is 0) leaves room for a GC emptying the pool
// mid-run.
func TestAllocCeilingConnected(t *testing.T) {
	g := graph.MustHypercube(13)
	dst := g.Antipode(0)
	for _, c := range []struct {
		name   string
		sample func(seed uint64) percolation.Sample
	}{
		{"bond p=13^-0.3", func(seed uint64) percolation.Sample {
			return percolation.New(g, math.Pow(13, -0.3), seed)
		}},
		{"site-bond", func(seed uint64) percolation.Sample {
			return percolation.NewSiteBond(g, 0.6, 0.85, seed)
		}},
	} {
		seed := uint64(0)
		run := func() {
			seed++
			if _, err := percolation.Connected(c.sample(seed), 0, dst); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
			run() // warm the arena pool
		}
		if got := testing.AllocsPerRun(50, run); got >= 1 {
			t.Errorf("Connected on %s allocates %.3f/op, want < 1 — scratch escaped the arena?", c.name, got)
		}
	}
}

// TestAllocCeilingDistributedBFS pins the flood's steady-state
// allocations on BenchmarkE13SimFidelity's 30x30 mesh at p = 0.6. The
// event-engine flood made 3,946 per call, a closure per delivered
// message and a path copy per visited vertex; the round-by-round flood
// makes about three: the outcome, two message slices (which grow only
// for rounds of more than 64 messages) and the path when it finds one.
func TestAllocCeilingDistributedBFS(t *testing.T) {
	g := graph.MustMesh(2, 30)
	dst := graph.Vertex(g.Order() - 1)
	seed := uint64(0)
	run := func() {
		seed++
		if _, err := sim.DistributedBFS(percolation.New(g, 0.6, seed), 0, dst, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		run() // warm the arena pool
	}
	const ceiling = 32
	if got := testing.AllocsPerRun(50, run); got > ceiling {
		t.Fatalf("DistributedBFS allocates %.1f/op, ceiling %d — per-message closures or path copies are back?", got, ceiling)
	}
}

// TestAllocCeilingGossip pins push gossip's steady-state allocations on
// BenchmarkE16Gossip's instance (H_10, p = 0.4, source 0 to its
// antipode). On a Go map with a fresh newly-informed slice per round it
// made 68 per call; with its informed set and both buffers borrowed
// from the pooled arena it makes one, the outcome.
func TestAllocCeilingGossip(t *testing.T) {
	g := graph.MustHypercube(10)
	seed := uint64(0)
	run := func() {
		seed++
		if _, err := sim.Gossip(percolation.New(g, 0.4, seed), 0, g.Antipode(0), true, 1<<20, seed); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		run() // warm the arena pool
	}
	const ceiling = 8
	if got := testing.AllocsPerRun(50, run); got > ceiling {
		t.Fatalf("Gossip allocates %.1f/op, ceiling %d — the informed set is back on a map?", got, ceiling)
	}
}

// TestAllocCeilingFloodLookup pins the overlay flood's steady-state
// allocations on BenchmarkE11OverlayLookup's instance (a 1,024-node
// overlay at p = 0.25, TTL 200). With a parent map and a fresh frontier
// per depth a call, overlay construction included, made 69; with an
// arena parent table and two reused frontiers it makes 3: the overlay,
// its hypercube, and the path it returns or the error.
func TestAllocCeilingFloodLookup(t *testing.T) {
	seed := uint64(0)
	run := func() {
		seed++
		o, err := overlay.New(10, 0.25, seed)
		if err != nil {
			t.Fatal(err)
		}
		o.FloodLookup(0, seed*7919, 200) // a failed lookup is an outcome too
	}
	for i := 0; i < 5; i++ {
		run() // warm the arena pool
	}
	const ceiling = 12
	if got := testing.AllocsPerRun(50, run); got > ceiling {
		t.Fatalf("FloodLookup allocates %.1f/op, ceiling %d — the parent table is back on a map?", got, ceiling)
	}
}

// TestAllocCeilingBacktrackLookup pins the overlay DFS's steady-state
// allocations on E16's instance (H_10, p = 0.4, budget 2^22), with and
// without detours. With two fresh candidate slices per frame and an
// appended frame stack a call, overlay construction included, made 27
// without detours and 116 with; with a per-frame dimension cursor and
// the stack in arena slices it makes 3: the overlay, its hypercube,
// and the path it returns or the error.
func TestAllocCeilingBacktrackLookup(t *testing.T) {
	for _, detours := range []bool{false, true} {
		seed := uint64(0)
		run := func() {
			seed++
			o, err := overlay.New(10, 0.4, seed)
			if err != nil {
				t.Fatal(err)
			}
			o.BacktrackLookup(0, seed*7919, 1<<22, detours) // a failed lookup is an outcome too
		}
		for i := 0; i < 5; i++ {
			run() // warm the arena pool
		}
		const ceiling = 12
		if got := testing.AllocsPerRun(50, run); got > ceiling {
			t.Fatalf("BacktrackLookup (detours %v) allocates %.1f/op, ceiling %d — candidate slices are back per frame?", detours, got, ceiling)
		}
	}
}

// TestAllocCeilingDoubleTreeRootsLinked pins E5's trial at zero
// allocations: the mirrored-branch search on TT_8 at p = 1/sqrt(2),
// E5's deepest quick cell at its threshold. Its DFS stack grew by
// append, two allocations per call and 12% of
// BenchmarkE5DoubleTreeThreshold's CPU in growslice; a fixed frame
// array sized for NewDoubleTree's largest depth makes every call
// allocation-free.
func TestAllocCeilingDoubleTreeRootsLinked(t *testing.T) {
	g := graph.MustDoubleTree(8)
	seed := uint64(0)
	run := func() {
		seed++
		if _, err := route.DoubleTreeRootsLinked(percolation.New(g, 0.7071, seed), 0); err != nil {
			t.Fatal(err)
		}
	}
	const ceiling = 0
	if got := testing.AllocsPerRun(100, run); got > ceiling {
		t.Fatalf("DoubleTreeRootsLinked allocates %.2f/op, ceiling %d — the frame stack is growing on the heap again?", got, ceiling)
	}
}

// TestAllocCeilingJobRetention pins what a finished job costs a daemon:
// its status record, in a history of bounded length, plus its result
// bytes under the store's budget. 20,000 distinct one-trial estimates
// go through client.Do against a service over a 64 KiB bounded store,
// and the live heap after a GC may grow by less than 2 MiB between job
// 10,000 and job 20,000. When every finished job stayed indexed with
// its context and its compiled task, it grew by 9.4 MiB there.
func TestAllocCeilingJobRetention(t *testing.T) {
	svc := serve.New(serve.Options{Store: cache.NewBounded(64 << 10)})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const jobs, ceiling = 20000, 2 << 20
	var mid uint64
	for i := 1; i <= jobs; i++ {
		req := api.Request{Kind: api.KindEstimate, Estimate: &api.EstimateSpec{
			Graph: api.GraphSpec{Family: "hypercube", N: 4}, P: 0.7, Trials: 1, Seed: uint64(i),
		}}
		if _, err := c.Do(context.Background(), req); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if i == jobs/2 {
			mid = liveHeap()
		}
	}
	grown := int64(liveHeap()) - int64(mid)
	t.Logf("live heap grew %.2f MiB from job %d to job %d", float64(grown)/(1<<20), jobs/2, jobs)
	if grown >= ceiling {
		t.Fatalf("live heap grew %.1f MiB from job %d to job %d, ceiling %.0f MiB — finished jobs are retained again?",
			float64(grown)/(1<<20), jobs/2, jobs, float64(ceiling)/(1<<20))
	}
}
