package percolation

import (
	"context"
	"errors"
	"math"
	"testing"

	"faultroute/internal/graph"
)

func TestEventProbabilityExtremes(t *testing.T) {
	ctx := context.Background()
	always, err := EventProbabilityCtx(ctx, 50, 1, 1, nil, func(uint64) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	never, err := EventProbabilityCtx(ctx, 50, 1, 1, nil, func(uint64) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if always != 1 || never != 0 {
		t.Fatalf("got %v and %v", always, never)
	}
	if got, err := EventProbabilityCtx(ctx, 0, 1, 1, nil, func(uint64) bool { return true }); err != nil || got != 0 {
		t.Fatalf("zero trials = (%v, %v), want (0, nil)", got, err)
	}
}

func TestEventProbabilityCoinIsFair(t *testing.T) {
	got, err := EventProbabilityCtx(context.Background(), 4000, 9, 1, nil, func(seed uint64) bool { return seed%2 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 0.05 {
		t.Fatalf("parity event probability = %v", got)
	}
}

func TestConnectionProbabilityMonotone(t *testing.T) {
	// Pr[u ~ v] in G_p, estimated with the exact connectivity search per
	// sample, must grow with p.
	g := graph.MustMesh(2, 8)
	u := graph.Vertex(0)
	v := graph.Vertex(g.Order() - 1)
	var prev float64
	for i, p := range []float64{0.3, 0.6, 0.95} {
		var searchErr error
		prob, err := EventProbabilityCtx(context.Background(), 60, 4, 1, nil, func(seed uint64) bool {
			conn, err := Connected(New(g, p, seed), u, v)
			if err != nil {
				searchErr = err
			}
			return conn
		})
		if err == nil {
			err = searchErr
		}
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && prob+0.15 < prev { // allow Monte Carlo slack
			t.Fatalf("connection probability decreased: %v -> %v at p=%v", prev, prob, p)
		}
		prev = prob
	}
	if prev < 0.9 {
		t.Fatalf("connection probability at p=0.95 = %v, want near 1", prev)
	}
}

func TestFindThresholdOnKnownEvent(t *testing.T) {
	// Synthetic monotone event: open a single Bernoulli(p) coin. The
	// probability of the event is exactly p, so the p at which it crosses
	// target 0.5 is 0.5.
	g := graph.MustRing(3)
	got, err := FindThresholdCtx(context.Background(), 0, 1, 0.5, 0.02, 600, 11, 1, nil, func(p float64, seed uint64) bool {
		s := New(g, p, seed)
		open, _ := s.Open(0, 1)
		return open
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 0.08 {
		t.Fatalf("threshold = %v, want ~0.5", got)
	}
}

func TestFindThresholdBadBracket(t *testing.T) {
	_, err := FindThresholdCtx(context.Background(), 0.8, 0.9, 0.5, 0.01, 50, 1, 1, nil, func(p float64, seed uint64) bool {
		return true // probability 1 everywhere: lower bound already above target
	})
	if !errors.Is(err, ErrBadBracket) {
		t.Fatalf("err = %v, want ErrBadBracket", err)
	}
	if _, err := FindThresholdCtx(context.Background(), 0.9, 0.1, 0.5, 0.01, 10, 1, 1, nil, nil); err == nil {
		t.Fatal("inverted bracket accepted")
	}
}

func TestGiantScanMonotoneAndBounded(t *testing.T) {
	g := graph.MustHypercube(9)
	stats, err := GiantScanCtx(context.Background(), g, []float64{0.05, 0.2, 0.5, 0.9}, 5, 17, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 4 {
		t.Fatalf("got %d rows", len(stats))
	}
	for i, st := range stats {
		if st.GiantFraction < 0 || st.GiantFraction > 1 {
			t.Fatalf("giant fraction %v out of range", st.GiantFraction)
		}
		if st.SecondFraction > st.GiantFraction {
			t.Fatalf("second %v exceeds giant %v", st.SecondFraction, st.GiantFraction)
		}
		if i > 0 && st.GiantFraction+0.1 < stats[i-1].GiantFraction {
			t.Fatalf("giant fraction decreased with p: %v -> %v",
				stats[i-1].GiantFraction, st.GiantFraction)
		}
	}
	if stats[3].GiantFraction < 0.99 {
		t.Fatalf("giant fraction at p=0.9 = %v, want ~1", stats[3].GiantFraction)
	}
}

func TestMeshCriticalPointIsHalf(t *testing.T) {
	// Kesten: p_c = 1/2 for the 2-d lattice. On a finite box, the
	// probability that the two opposite corners connect crosses 1/2 near
	// p = 0.5 (finite-size effects shift it up somewhat; we assert a
	// loose bracket around the known value).
	if testing.Short() {
		t.Skip("Monte Carlo scan")
	}
	g := graph.MustMesh(2, 24)
	u := graph.Vertex(0)
	v := graph.Vertex(g.Order() - 1)
	got, err := FindThresholdCtx(context.Background(), 0.3, 0.95, 0.5, 0.01, 300, 23, 1, nil, func(p float64, seed uint64) bool {
		comps, err := Label(New(g, p, seed))
		if err != nil {
			return false
		}
		return comps.Connected(u, v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got < 0.45 || got < 0.5 && got > 0.75 || got > 0.75 {
		t.Fatalf("corner-connection threshold = %v, want in [0.45, 0.75]", got)
	}
}
