package sim_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"faultroute/internal/arena"
	"faultroute/internal/graph"
	"faultroute/internal/percolation"
	"faultroute/internal/rng"
	"faultroute/internal/sim"
)

// referenceGossip is push gossip as it ran on Go maps before its state
// moved to arena tables, kept as the oracle Gossip must match field for
// field: a map of informed vertices, and a fresh newly-informed slice
// per round.
func referenceGossip(s percolation.Sample, src graph.Vertex, target graph.Vertex, hasTarget bool, maxRounds int, seed uint64) (*sim.GossipOutcome, error) {
	if maxRounds <= 0 {
		return nil, fmt.Errorf("sim: gossip: non-positive maxRounds %d", maxRounds)
	}
	g := s.Graph()
	str := rng.NewStream(rng.Combine(seed, 0x90551b))
	informed := map[graph.Vertex]bool{src: true}
	order := []graph.Vertex{src}
	out := &sim.GossipOutcome{Informed: 1, TargetRound: -1}
	if hasTarget && src == target {
		out.ReachedTarget = true
		out.TargetRound = 0
		return out, nil
	}
	for round := 1; round <= maxRounds; round++ {
		newlyInformed := make([]graph.Vertex, 0, len(order))
		for _, v := range order {
			deg := g.Degree(v)
			if deg == 0 {
				continue
			}
			w := g.Neighbor(v, str.Intn(deg))
			out.Attempts++
			open, err := s.Open(v, w)
			if err != nil {
				return nil, fmt.Errorf("sim: gossip: %w", err)
			}
			if !open || informed[w] {
				continue
			}
			informed[w] = true
			newlyInformed = append(newlyInformed, w)
			if hasTarget && w == target {
				out.Rounds = round
				out.Informed = len(informed)
				out.ReachedTarget = true
				out.TargetRound = round
				return out, nil
			}
		}
		order = append(order, newlyInformed...)
		out.Rounds = round
		if len(newlyInformed) == 0 && referenceSaturated(s, order, informed) {
			break
		}
	}
	out.Informed = len(informed)
	return out, nil
}

func referenceSaturated(s percolation.Sample, order []graph.Vertex, informed map[graph.Vertex]bool) bool {
	g := s.Graph()
	for _, v := range order {
		deg := g.Degree(v)
		for i := 0; i < deg; i++ {
			w := g.Neighbor(v, i)
			if informed[w] {
				continue
			}
			open, err := s.Open(v, w)
			if err == nil && open {
				return false
			}
		}
	}
	return true
}

// gossipTally counts how the compared runs ended, so the test can
// require that every ending was exercised.
type gossipTally struct{ reached, saturated, capped, errs int }

// checkGossip runs Gossip and the reference on one input and fails on
// any difference in the outcome or the error.
func checkGossip(t *testing.T, tally *gossipTally, name string, s percolation.Sample, src, target graph.Vertex, hasTarget bool, maxRounds int, seed uint64) {
	t.Helper()
	want, wantErr := referenceGossip(s, src, target, hasTarget, maxRounds, seed)
	got, gotErr := sim.Gossip(s, src, target, hasTarget, maxRounds, seed)
	if (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error() {
		t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\n got %+v\nwant %+v", name, got, want)
	}
	switch {
	case wantErr != nil:
		if !errors.Is(gotErr, percolation.ErrNotEdge) {
			t.Fatalf("%s: error %v does not wrap ErrNotEdge", name, gotErr)
		}
		tally.errs++
	case want.ReachedTarget:
		tally.reached++
	case want.Rounds < maxRounds:
		tally.saturated++
	default:
		tally.capped++
	}
}

// TestGossipMatchesReference checks the arena Gossip against the
// map-based reference: every outcome field and the error must agree.
// H_9 and H_10 (E16's family) run at four p, ten seeds, with and
// without a target and with round caps from 1 up; a mesh, a torus and
// K_50 run under bond and site percolation; phantom-edge rings make
// pushes fail; and H_23, above arena.DenseLimit, runs the sparse set.
func TestGossipMatchesReference(t *testing.T) {
	var tally gossipTally
	for _, n := range []int{9, 10} {
		g := graph.MustHypercube(n)
		for _, p := range []float64{0.15, 0.25, 0.4, 0.6} {
			for seed := uint64(1); seed <= 10; seed++ {
				s := percolation.New(g, p, seed)
				for _, hasTarget := range []bool{true, false} {
					for _, maxRounds := range []int{1, 3, 1 << 20} {
						name := fmt.Sprintf("%s p=%v seed=%d target=%v rounds=%d", g.Name(), p, seed, hasTarget, maxRounds)
						checkGossip(t, &tally, name, s, 0, g.Antipode(0), hasTarget, maxRounds, seed)
					}
				}
			}
		}
	}

	for _, g := range []graph.Graph{graph.MustMesh(2, 20), graph.MustTorus(2, 15), graph.MustComplete(50)} {
		last := graph.Vertex(g.Order() - 1)
		for seed := uint64(1); seed <= 10; seed++ {
			samples := map[string]percolation.Sample{
				"site-bond": percolation.NewSiteBond(g, 0.8, 0.75, seed),
			}
			for _, p := range []float64{0.15, 0.4, 0.6} {
				samples[fmt.Sprintf("p=%v", p)] = percolation.New(g, p, seed)
			}
			for kind, s := range samples {
				for _, hasTarget := range []bool{true, false} {
					for _, maxRounds := range []int{2, 1 << 20} {
						name := fmt.Sprintf("%s %s seed=%d target=%v rounds=%d", g.Name(), kind, seed, hasTarget, maxRounds)
						checkGossip(t, &tally, name, s, 0, last, hasTarget, maxRounds, seed)
					}
				}
			}
		}
	}

	ring := graph.MustRing(6)
	for _, g := range []graph.Graph{phantom{ring, 0, 3}, phantom{ring, 2, 5}} {
		for seed := uint64(1); seed <= 10; seed++ {
			checkGossip(t, &tally, fmt.Sprintf("phantom seed=%d", seed), percolation.New(g, 1, seed), 0, 4, true, 1<<20, seed)
		}
	}

	big := graph.MustHypercube(23)
	if big.Order() <= arena.DenseLimit {
		t.Fatalf("%s has order %d, not above arena.DenseLimit", big.Name(), big.Order())
	}
	for _, p := range []float64{0.25, 0.6} {
		for seed := uint64(1); seed <= 2; seed++ {
			s := percolation.New(big, p, seed)
			for _, maxRounds := range []int{4, 12} {
				name := fmt.Sprintf("%s p=%v seed=%d rounds=%d", big.Name(), p, seed, maxRounds)
				checkGossip(t, &tally, name, s, 5, big.Antipode(5), true, maxRounds, seed)
			}
		}
	}

	if tally.reached == 0 || tally.saturated == 0 || tally.capped == 0 || tally.errs == 0 {
		t.Fatalf("reached %d, saturated %d, capped %d, errors %d: an ending went unexercised",
			tally.reached, tally.saturated, tally.capped, tally.errs)
	}
}

func TestGossipRejectsSourceOutOfRange(t *testing.T) {
	g := graph.MustRing(8)
	if _, err := sim.Gossip(percolation.New(g, 1, 1), 8, 0, false, 10, 1); err == nil {
		t.Fatal("Gossip accepted source 8 on an 8-vertex ring")
	}
}
