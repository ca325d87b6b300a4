package exp

import (
	"faultroute/internal/graph"
	"faultroute/internal/percolation"
	"faultroute/internal/probe"
	"faultroute/internal/rng"
	"faultroute/internal/route"
)

// bondDraw is the core.Condition sample factory of bond percolation on
// g at retention p.
func bondDraw(g graph.Graph, p float64) func(seed uint64) percolation.Sample {
	return func(seed uint64) percolation.Sample { return percolation.New(g, p, seed) }
}

// localRun is a core.Condition run callback: it routes r from u to v on
// a fresh local prober, stores the distinct-probe count in *probes and
// releases the prober at once, so a trial holds one prober's pooled
// tables at a time.
func localRun(r route.Router, u, v graph.Vertex, probes *float64) func(percolation.Sample) (route.Path, error) {
	return func(s percolation.Sample) (route.Path, error) {
		pr := probe.NewLocal(s, u, 0)
		path, err := r.Route(pr, u, v)
		*probes = float64(pr.Count())
		pr.Release()
		return path, err
	}
}

// oracleRun is localRun on a fresh oracle prober.
func oracleRun(r route.Router, u, v graph.Vertex, probes *float64) func(percolation.Sample) (route.Path, error) {
	return func(s percolation.Sample) (route.Path, error) {
		pr := probe.NewOracle(s, 0)
		path, err := r.Route(pr, u, v)
		*probes = float64(pr.Count())
		pr.Release()
		return path, err
	}
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
