package sim

import (
	"errors"
	"testing"

	"faultroute/internal/graph"
	"faultroute/internal/percolation"
	"faultroute/internal/probe"
	"faultroute/internal/route"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	var order []int
	e := &Engine{}
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	if n := e.Run(0); n != 3 {
		t.Fatalf("processed %d events", n)
	}
	for i, want := range []int{1, 2, 3} {
		if order[i] != want {
			t.Fatalf("order = %v", order)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestEngineFIFOAmongTies(t *testing.T) {
	var order []int
	e := &Engine{}
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1, func() { order = append(order, i) })
	}
	e.Run(0)
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events out of order: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := &Engine{}
	hits := 0
	e.Schedule(1, func() {
		hits++
		e.Schedule(1, func() { hits++ })
	})
	e.Run(0)
	if hits != 2 {
		t.Fatalf("hits = %d", hits)
	}
	if e.Now() != 2 {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestEngineStopAndMaxEvents(t *testing.T) {
	e := &Engine{}
	hits := 0
	for i := 0; i < 10; i++ {
		e.Schedule(float64(i), func() { hits++ })
	}
	if n := e.Run(3); n != 3 || hits != 3 {
		t.Fatalf("maxEvents run processed %d/%d", n, hits)
	}
	e2 := &Engine{}
	e2.Schedule(0, func() { e2.Stop() })
	e2.Schedule(1, func() { t.Fatal("ran past Stop") })
	e2.Run(0)
	if e2.Pending() != 1 {
		t.Fatalf("pending = %d", e2.Pending())
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := &Engine{}
	ran := false
	e.Schedule(-5, func() { ran = true })
	e.Run(0)
	if !ran || e.Now() != 0 {
		t.Fatalf("ran=%v now=%v", ran, e.Now())
	}
}

func TestNetworkRejectsNonPositiveDelay(t *testing.T) {
	s := percolation.New(graph.MustRing(4), 1, 1)
	if _, err := NewNetwork(&Engine{}, s, 0); err == nil {
		t.Fatal("zero delay accepted")
	}
}

func TestNetworkSendOverOpenAndClosed(t *testing.T) {
	g := graph.MustRing(4)
	e := &Engine{}
	nw, err := NewNetwork(e, percolation.New(g, 1, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	nw.SetHandler(1, func(m Message) { got++ })
	if err := nw.Send(0, 1, "x", nil); err != nil {
		t.Fatal(err)
	}
	e.Run(0)
	if got != 1 || nw.Delivered != 1 || nw.Dropped != 0 {
		t.Fatalf("delivery stats: got=%d delivered=%d dropped=%d", got, nw.Delivered, nw.Dropped)
	}

	closed, err := NewNetwork(&Engine{}, percolation.New(g, 0, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := closed.Send(0, 1, "x", nil); err != nil {
		t.Fatal(err)
	}
	if closed.Dropped != 1 || closed.Attempts != 1 {
		t.Fatalf("drop stats: %+v", closed)
	}
}

func TestNetworkSendNonAdjacentErrors(t *testing.T) {
	nw, err := NewNetwork(&Engine{}, percolation.New(graph.MustRing(6), 1, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Send(0, 3, "x", nil); err == nil {
		t.Fatal("non-adjacent send accepted")
	}
}

func TestDistributedBFSOnFullGraphFindsGeodesic(t *testing.T) {
	g := graph.MustMesh(2, 6)
	s := percolation.New(g, 1, 1)
	dst := graph.Vertex(g.Order() - 1)
	out, err := DistributedBFS(s, 0, dst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Found {
		t.Fatal("not found on full graph")
	}
	wantLen := g.Dist(0, dst)
	if len(out.Path)-1 != wantLen {
		t.Fatalf("path length %d, want %d", len(out.Path)-1, wantLen)
	}
	if err := route.Validate(s, route.Path(out.Path), 0, dst); err != nil {
		t.Fatal(err)
	}
	// Flooding time = BFS depth + echo length.
	if out.Time != float64(2*wantLen) {
		t.Fatalf("time = %v, want %v", out.Time, 2*wantLen)
	}
}

func TestDistributedBFSSelfRoute(t *testing.T) {
	s := percolation.New(graph.MustRing(5), 1, 1)
	out, err := DistributedBFS(s, 2, 2, 0)
	if err != nil || !out.Found || len(out.Path) != 1 {
		t.Fatalf("self route: %+v, %v", out, err)
	}
}

func TestDistributedBFSUnreachable(t *testing.T) {
	s := percolation.New(graph.MustRing(8), 0, 1)
	out, err := DistributedBFS(s, 0, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Found {
		t.Fatal("found a path on a fully closed graph")
	}
	if out.Attempts != 2 || out.Dropped != 2 {
		t.Fatalf("attempts = %d dropped = %d, want both 2", out.Attempts, out.Dropped)
	}
}

func TestDistributedBFSAgreesWithLabeling(t *testing.T) {
	g := graph.MustMesh(2, 8)
	dst := graph.Vertex(g.Order() - 1)
	for seed := uint64(0); seed < 15; seed++ {
		s := percolation.New(g, 0.55, seed)
		comps, err := percolation.Label(s)
		if err != nil {
			t.Fatal(err)
		}
		out, err := DistributedBFS(s, 0, dst, 0)
		if err != nil {
			t.Fatal(err)
		}
		if out.Found != comps.Connected(0, dst) {
			t.Fatalf("seed %d: found=%v, labeling says %v", seed, out.Found, comps.Connected(0, dst))
		}
		if out.Found {
			if err := route.Validate(s, route.Path(out.Path), 0, dst); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

func TestDistributedBFSMessagesTrackProbes(t *testing.T) {
	// E13's claim in miniature: attempts are within a small constant of
	// BFSLocal's distinct-edge probes on the same sample.
	g := graph.MustHypercube(8)
	dst := g.Antipode(0)
	for seed := uint64(0); seed < 10; seed++ {
		s := percolation.New(g, 0.5, seed)
		out, err := DistributedBFS(s, 0, dst, 0)
		if err != nil {
			t.Fatal(err)
		}
		pr := probe.NewLocal(s, 0, 0)
		_, rerr := route.NewBFSLocal().Route(pr, 0, dst)
		if rerr != nil && !errors.Is(rerr, route.ErrNoPath) {
			t.Fatal(rerr)
		}
		if out.Found == (rerr != nil) {
			t.Fatalf("seed %d: simulator found=%v, router err=%v", seed, out.Found, rerr)
		}
		// BFS stops at dst, so its count lower-bounds the flood's work;
		// the flood's natural yardstick is the full open cluster of the
		// source and its incident edges. Each is attempted at most twice
		// (once per in-cluster endpoint), plus the echo path.
		if out.Attempts < pr.Count() {
			t.Fatalf("seed %d: flood attempted %d < router probes %d",
				seed, out.Attempts, pr.Count())
		}
		// Upper bound: every cluster vertex transmits at most deg(v)
		// messages (its flood fan-out), plus the echo path. The source
		// cluster is the set of vertices labeling puts with vertex 0.
		comps, err := percolation.Label(s)
		if err != nil {
			t.Fatal(err)
		}
		maxAttempts := 2 * len(out.Path)
		for v := graph.Vertex(0); uint64(v) < g.Order(); v++ {
			if comps.Connected(0, v) {
				maxAttempts += g.Degree(v)
			}
		}
		if out.Attempts > maxAttempts {
			t.Fatalf("seed %d: attempts=%d exceed degree-sum bound %d",
				seed, out.Attempts, maxAttempts)
		}
	}
}

func TestDistributedBFSDeterministic(t *testing.T) {
	g := graph.MustMesh(2, 7)
	s := percolation.New(g, 0.6, 9)
	a, err := DistributedBFS(s, 0, graph.Vertex(g.Order()-1), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DistributedBFS(s, 0, graph.Vertex(g.Order()-1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Found != b.Found || a.Attempts != b.Attempts || a.Time != b.Time || a.Events != b.Events {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}
