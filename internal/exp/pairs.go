package exp

import (
	"errors"

	"faultroute/internal/graph"
	"faultroute/internal/percolation"
	"faultroute/internal/rng"
)

// ErrConditioning is returned when a conditioned sample could not be
// drawn within the retry limit (e.g. demanding connected pairs deep in
// the subcritical phase).
var ErrConditioning = errors.New("exp: conditioning failed (event too rare at these parameters)")

// conditionedTrial draws percolation samples with consecutive derived
// seeds until `accept` holds, up to maxTries. It returns the accepted
// sample together with how many candidates were rejected, so experiments
// can report the conditioning acceptance rate.
func conditionedTrial(g graph.Graph, p float64, seed uint64, maxTries int,
	accept func(s percolation.Sample) (bool, error)) (percolation.Sample, int, error) {
	for try := 0; try < maxTries; try++ {
		s := percolation.New(g, p, rng.Combine(seed, uint64(try)))
		ok, err := accept(s)
		if err != nil {
			return percolation.Sample{}, try, err
		}
		if ok {
			return s, try, nil
		}
	}
	return percolation.Sample{}, maxTries, ErrConditioning
}

// connectedSample draws a sample in which u ~ v — the conditioning of
// Definition 2. The check is percolation.Connected's exact bidirectional
// cluster search over pooled scratch: identical accept/reject decisions
// to full component labeling, paying only for the parts of u's and v's
// clusters explored before they meet or the smaller one runs dry.
func connectedSample(g graph.Graph, p float64, u, v graph.Vertex, seed uint64, maxTries int) (percolation.Sample, int, error) {
	return conditionedTrial(g, p, seed, maxTries, func(s percolation.Sample) (bool, error) {
		return percolation.Connected(s, u, v)
	})
}

// giantPair samples a uniformly random pair of distinct vertices of the
// giant component, optionally requiring base-graph distance >= minDist
// when the graph is a Metric. It returns ok=false if no acceptable pair
// was found within the try limit.
func giantPair(g graph.Graph, comps *percolation.Components, str *rng.Stream, minDist, maxTries int) (u, v graph.Vertex, ok bool) {
	m, hasMetric := g.(graph.Metric)
	for try := 0; try < maxTries; try++ {
		u = graph.Vertex(str.Uint64n(g.Order()))
		v = graph.Vertex(str.Uint64n(g.Order()))
		if u == v {
			continue
		}
		if !comps.InGiant(u) || !comps.Connected(u, v) {
			continue
		}
		if minDist > 0 && hasMetric && m.Dist(u, v) < minDist {
			continue
		}
		return u, v, true
	}
	return 0, 0, false
}
