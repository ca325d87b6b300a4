package sim

import (
	"fmt"

	"faultroute/internal/arena"
	"faultroute/internal/graph"
	"faultroute/internal/percolation"
	"faultroute/internal/rng"
)

// GossipOutcome reports one run of push gossip on a percolated graph.
type GossipOutcome struct {
	// Informed is the number of nodes holding the rumor when the run
	// ended.
	Informed int
	// Rounds is the number of synchronous push rounds executed.
	Rounds int
	// Attempts counts push transmissions tried, including pushes over
	// failed links (lost) and to already-informed nodes (wasted).
	Attempts int
	// ReachedTarget is true when the target node (if any was set) became
	// informed.
	ReachedTarget bool
	// TargetRound is the round at which the target was informed (0 when
	// the target is the source, -1 when never reached).
	TargetRound int
}

// Gossip runs synchronous push rumor-spreading from src on the
// percolated graph: each round, every informed node picks a uniformly
// random incident edge and pushes the rumor across it; pushes over
// failed links are lost (and counted — the node cannot tell). The run
// stops when the target is informed, when maxRounds elapse, or when a
// round makes no progress and every open neighbor of the informed set is
// already informed.
//
// src must be a vertex of the sample's graph. The informed set and the
// round buffers are borrowed from a pooled arena, so a run allocates
// only its outcome in steady state.
//
// Section 1.3 names gossip alongside flooding as the data-location
// fallback that keeps working past the routing transition: it needs no
// routing tables, only liveness of *some* open path, at the price of
// many rounds and redundant messages. Experiment E16 quantifies that
// trade against greedy DHT lookup and flooding.
func Gossip(s percolation.Sample, src graph.Vertex, target graph.Vertex, hasTarget bool, maxRounds int, seed uint64) (*GossipOutcome, error) {
	if maxRounds <= 0 {
		return nil, fmt.Errorf("sim: gossip: non-positive maxRounds %d", maxRounds)
	}
	g := s.Graph()
	if n := g.Order(); uint64(src) >= n {
		return nil, fmt.Errorf("sim: gossip: source %d out of range [0, %d)", src, n)
	}
	str := rng.NewStream(rng.Combine(seed, 0x90551b))
	out := &GossipOutcome{Informed: 1, TargetRound: -1}
	if hasTarget && src == target {
		out.ReachedTarget = true
		out.TargetRound = 0
		return out, nil
	}

	a := arena.Acquire()
	defer a.Release()
	informed := a.Set(g.Order())
	defer a.PutSet(informed)
	informed.Add(src)
	order := append(a.Vertices(), src) // deterministic iteration order
	fresh := a.Vertices()              // informed this round
	defer func() {
		a.PutVertices(order)
		a.PutVertices(fresh)
	}()

	for round := 1; round <= maxRounds; round++ {
		fresh = fresh[:0]
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
			if !open || informed.Has(w) {
				continue
			}
			informed.Add(w)
			fresh = append(fresh, w)
			if hasTarget && w == target {
				out.Rounds = round
				out.Informed = informed.Len()
				out.ReachedTarget = true
				out.TargetRound = round
				return out, nil
			}
		}
		order = append(order, fresh...)
		out.Rounds = round
		if len(fresh) == 0 && saturated(s, order, informed) {
			break
		}
	}
	out.Informed = informed.Len()
	return out, nil
}

// saturated reports whether every open neighbor of the informed set is
// already informed — gossip can make no further progress, so the run may
// stop early rather than spin for maxRounds.
func saturated(s percolation.Sample, order []graph.Vertex, informed *arena.VSet) bool {
	g := s.Graph()
	for _, v := range order {
		deg := g.Degree(v)
		for i := 0; i < deg; i++ {
			w := g.Neighbor(v, i)
			if informed.Has(w) {
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
