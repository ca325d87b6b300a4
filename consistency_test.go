package faultroute_test

// Cross-cutting consistency properties of the whole system, run through
// the public API: every complete router must agree with exact labeling
// and with every other complete router about reachability, on shared
// percolation samples across topologies, probabilities, and failure
// models.

import (
	"context"
	"errors"
	"testing"

	"faultroute"
)

// completeRouters returns the routers that are complete local deciders
// on a metric, path-maker topology (they find a path iff one exists).
func completeRouters() []faultroute.Router {
	return []faultroute.Router{
		faultroute.NewBFSRouter(),
		faultroute.NewGreedyRouter(),
		faultroute.NewPathFollowRouter(),
		faultroute.NewGreedyRescueRouter(0),
	}
}

func TestAllCompleteRoutersAgreeOnHypercube(t *testing.T) {
	g, err := faultroute.NewHypercube(8)
	if err != nil {
		t.Fatal(err)
	}
	dst := g.Antipode(0)
	for _, p := range []float64{0.2, 0.4, 0.7} {
		for seed := uint64(0); seed < 8; seed++ {
			s := faultroute.Percolate(g, p, seed)
			comps, err := faultroute.LabelComponents(s)
			if err != nil {
				t.Fatal(err)
			}
			want := comps.Connected(0, dst)
			for _, r := range completeRouters() {
				spec := faultroute.Spec{Graph: g, P: p, Router: r, Mode: faultroute.ModeLocal}
				out, err := faultroute.Run(spec, 0, dst, seed)
				if err != nil {
					t.Fatal(err)
				}
				got := out.Err == nil
				if got != want {
					t.Fatalf("p=%v seed=%d: %s says reachable=%v, labeling says %v",
						p, seed, r.Name(), got, want)
				}
				if !got && !errors.Is(out.Err, faultroute.ErrNoPath) {
					t.Fatalf("%s failed with non-ErrNoPath: %v", r.Name(), out.Err)
				}
			}
		}
	}
}

func TestOracleAndLocalVerdictsMatchOnMesh(t *testing.T) {
	g, err := faultroute.NewMesh(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	dst := faultroute.Vertex(g.Order() - 1)
	for seed := uint64(0); seed < 12; seed++ {
		s := faultroute.Percolate(g, 0.55, seed)
		comps, err := faultroute.LabelComponents(s)
		if err != nil {
			t.Fatal(err)
		}
		oracle := faultroute.Spec{Graph: g, P: 0.55,
			Router: faultroute.NewBidirectionalBFSRouter(), Mode: faultroute.ModeOracle}
		out, err := faultroute.Run(oracle, 0, dst, seed)
		if err != nil {
			t.Fatal(err)
		}
		if (out.Err == nil) != comps.Connected(0, dst) {
			t.Fatalf("seed %d: oracle verdict mismatch", seed)
		}
	}
}

func TestSiteBondRoutingConsistency(t *testing.T) {
	// Routers must honor node failures transparently: paths found under
	// site+bond percolation only traverse alive vertices.
	g, err := faultroute.NewHypercube(8)
	if err != nil {
		t.Fatal(err)
	}
	dst := g.Antipode(0)
	for seed := uint64(0); seed < 15; seed++ {
		s := faultroute.PercolateSiteBond(g, 0.9, 0.8, seed)
		if !s.Alive(0) || !s.Alive(dst) {
			continue
		}
		comps, err := faultroute.LabelComponents(s)
		if err != nil {
			t.Fatal(err)
		}
		pr := faultroute.NewLocalProber(s, 0, 0)
		path, rerr := faultroute.NewBFSRouter().Route(pr, 0, dst)
		if (rerr == nil) != comps.Connected(0, dst) {
			t.Fatalf("seed %d: verdict mismatch under site+bond", seed)
		}
		if rerr != nil {
			continue
		}
		for _, v := range path {
			if !s.Alive(v) {
				t.Fatalf("seed %d: path traverses dead vertex %d", seed, v)
			}
		}
		if err := faultroute.ValidatePath(s, path, 0, dst); err != nil {
			t.Fatal(err)
		}
	}
}

func TestProbeCountsMonotoneInInformation(t *testing.T) {
	// Structure-aware routers should never be (much) worse than blind
	// BFS in aggregate: over many easy samples, greedy and path-follow
	// beat exhaustive BFS on total probes.
	g, err := faultroute.NewHypercube(9)
	if err != nil {
		t.Fatal(err)
	}
	dst := g.Antipode(0)
	totals := make(map[string]int)
	for seed := uint64(0); seed < 10; seed++ {
		s := faultroute.Percolate(g, 0.8, seed)
		comps, err := faultroute.LabelComponents(s)
		if err != nil {
			t.Fatal(err)
		}
		if !comps.Connected(0, dst) {
			continue
		}
		for _, r := range completeRouters() {
			pr := faultroute.NewLocalProber(s, 0, 0)
			if _, err := r.Route(pr, 0, dst); err != nil {
				t.Fatal(err)
			}
			totals[r.Name()] += pr.Count()
		}
	}
	if totals["greedy"] >= totals["bfs-local"] {
		t.Fatalf("greedy (%d) not cheaper than blind BFS (%d) at p=0.8",
			totals["greedy"], totals["bfs-local"])
	}
	if totals["path-follow"] >= totals["bfs-local"] {
		t.Fatalf("path-follow (%d) not cheaper than blind BFS (%d) at p=0.8",
			totals["path-follow"], totals["bfs-local"])
	}
}

func TestDeterminismAcrossTheStack(t *testing.T) {
	// One deep determinism check through the public API: estimate,
	// simulate, and look up twice with identical seeds.
	g, err := faultroute.NewHypercube(8)
	if err != nil {
		t.Fatal(err)
	}
	spec := faultroute.Spec{Graph: g, P: 0.5,
		Router: faultroute.NewPathFollowRouter(), Mode: faultroute.ModeLocal}
	local := faultroute.NewLocal()
	c1, err := local.Estimate(context.Background(), spec, 0, g.Antipode(0), 5, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := local.Estimate(context.Background(), spec, 0, g.Antipode(0), 5, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Mean != c2.Mean || c1.Median != c2.Median || c1.Rejected != c2.Rejected {
		t.Fatalf("Estimate nondeterministic: %+v vs %+v", c1, c2)
	}

	s := faultroute.Percolate(g, 0.6, 3)
	f1, err := faultroute.SimulateDistributedBFS(s, 0, g.Antipode(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := faultroute.SimulateDistributedBFS(s, 0, g.Antipode(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if f1.Attempts != f2.Attempts || f1.Found != f2.Found {
		t.Fatal("simulator nondeterministic")
	}

	g1, err := faultroute.SimulateGossip(s, 0, g.Antipode(0), true, 1<<20, 9)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := faultroute.SimulateGossip(s, 0, g.Antipode(0), true, 1<<20, 9)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Attempts != g2.Attempts || g1.ReachedTarget != g2.ReachedTarget {
		t.Fatal("gossip nondeterministic")
	}
}
