package sim

import (
	"errors"
	"testing"

	"faultroute/internal/graph"
	"faultroute/internal/percolation"
	"faultroute/internal/probe"
	"faultroute/internal/route"
)

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

// TestDistributedBFSRejectsOutOfRangeEndpoints pins that an endpoint
// outside the graph is an error: the parent pointers are indexed by
// vertex, and the graphs compute neighbors of any vertex number.
func TestDistributedBFSRejectsOutOfRangeEndpoints(t *testing.T) {
	s := percolation.New(graph.MustMesh(2, 5), 0.6, 1)
	for _, c := range [][2]graph.Vertex{{30, 0}, {0, 25}, {25, 25}} {
		if out, err := DistributedBFS(s, c[0], c[1], 0); err == nil {
			t.Fatalf("src %d dst %d on 25 vertices: %+v, want an error", c[0], c[1], out)
		}
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
