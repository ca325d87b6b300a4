package percolation_test

import (
	"fmt"
	"testing"

	"faultroute/api"
	"faultroute/internal/graph"
	"faultroute/internal/percolation"
	"faultroute/internal/rng"
	"faultroute/internal/sim"
)

// sampleKind builds one kind of percolation sample of g; release frees
// whatever the sample borrowed (a failure mask's arena state).
type sampleKind struct {
	name string
	make func(g graph.Graph, seed uint64) (s percolation.Sample, release func())
}

func bondKind(p float64) sampleKind {
	return sampleKind{fmt.Sprintf("bond p=%v", p), func(g graph.Graph, seed uint64) (percolation.Sample, func()) {
		return percolation.New(g, p, seed), func() {}
	}}
}

func faultKind(f sim.Fault) sampleKind {
	return sampleKind{"mask " + f.Model, func(g graph.Graph, seed uint64) (percolation.Sample, func()) {
		mask := f.Sample(g, seed)
		return percolation.New(g, 0.7, seed).WithDead(mask), mask.Release
	}}
}

var sampleKinds = []sampleKind{
	bondKind(0.15),
	bondKind(0.5),
	bondKind(0.9),
	{"site-bond", func(g graph.Graph, seed uint64) (percolation.Sample, func()) {
		return percolation.NewSiteBond(g, 0.8, 0.75, seed), func() {}
	}},
	faultKind(sim.Fault{Model: sim.FailRegion, Radius: 1, Count: 2, Seed: 5}),
	faultKind(sim.Fault{Model: sim.FailNodes, Count: 3, Seed: 9}),
}

// TestConnectedMatchesLabel checks the bidirectional search against exact
// component labeling — the slow path it replaces — on every registered
// family, every sample kind and a spread of pairs: random ones, u == v,
// an adjacent pair, a dead endpoint and an isolated endpoint. Each pair
// also runs the budgeted search at increasing budgets: every decided
// answer must be Label's, the unlimited budget must decide, and once a
// budget decides, every larger one must too.
func TestConnectedMatchesLabel(t *testing.T) {
	for _, gs := range api.SampleGraphSpecs() {
		g, err := api.NewGraph(gs)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(gs.Family+"/"+g.Name(), func(t *testing.T) {
			for _, kind := range sampleKinds {
				for seed := uint64(1); seed <= 3; seed++ {
					s, release := kind.make(g, seed)
					checkConnectedPairs(t, kind.name, s, seed)
					release()
				}
			}
		})
	}
}

func checkConnectedPairs(t *testing.T, kind string, s percolation.Sample, seed uint64) {
	t.Helper()
	g := s.Graph()
	comps, err := percolation.Label(s)
	if err != nil {
		t.Fatal(err)
	}
	n := g.Order()
	str := rng.NewStream(seed)
	random := func() graph.Vertex { return graph.Vertex(str.Uint64n(n)) }
	type pair struct {
		what string
		u, v graph.Vertex
	}
	var pairs []pair
	for k := 0; k < 24; k++ {
		pairs = append(pairs, pair{"random", random(), random()})
	}
	u := random()
	pairs = append(pairs, pair{"u == v", u, u})
	if g.Degree(u) > 0 {
		pairs = append(pairs, pair{"adjacent", u, g.Neighbor(u, 0)})
	}
	// hasOpenEdge reports whether any base edge at v is open.
	hasOpenEdge := func(v graph.Vertex) bool {
		for i := 0; i < g.Degree(v); i++ {
			w := g.Neighbor(v, i)
			if id, ok := g.EdgeID(v, w); ok && s.OpenEdgeID(v, w, id) {
				return true
			}
		}
		return false
	}
	dead, isolated := false, false
	for v := graph.Vertex(0); uint64(v) < n && !(dead && isolated); v++ {
		if !dead && !s.Alive(v) {
			dead = true
			pairs = append(pairs, pair{"dead endpoint", v, random()})
		}
		if !isolated && !hasOpenEdge(v) {
			isolated = true
			pairs = append(pairs, pair{"isolated endpoint", random(), v})
		}
	}
	for _, pr := range pairs {
		want := comps.Connected(pr.u, pr.v)
		for _, q := range [][2]graph.Vertex{{pr.u, pr.v}, {pr.v, pr.u}} {
			got, err := percolation.Connected(s, q[0], q[1])
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s seed %d, %s pair (%d, %d): Connected = %v, Label = %v",
					kind, seed, pr.what, q[0], q[1], got, want)
			}
			// Budgets in increasing order; 0 means unlimited.
			wasDecided := false
			for _, budget := range []uint64{1, 8, 64, 0} {
				got, decided, err := percolation.ConnectedLazy(s, q[0], q[1], budget)
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case decided && got != want:
					t.Fatalf("%s seed %d, %s pair (%d, %d): ConnectedLazy at budget %d = %v, Label = %v",
						kind, seed, pr.what, q[0], q[1], budget, got, want)
				case !decided && (budget == 0 || wasDecided):
					t.Fatalf("%s seed %d, %s pair (%d, %d): ConnectedLazy undecided at budget %d",
						kind, seed, pr.what, q[0], q[1], budget)
				}
				wasDecided = decided
			}
		}
	}
}

// TestGiantSizeMatchesScan checks GiantSize, which reads the largest set
// size union-find tracks, against the scan it replaced — the largest
// component size over every vertex — on every registered family across
// the phase diagram.
func TestGiantSizeMatchesScan(t *testing.T) {
	for _, gs := range api.SampleGraphSpecs() {
		g, err := api.NewGraph(gs)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []float64{0.05, 0.3, 0.5, 0.7, 0.95} {
			for seed := uint64(1); seed <= 3; seed++ {
				comps, err := percolation.Label(percolation.New(g, p, seed))
				if err != nil {
					t.Fatal(err)
				}
				var scan uint64
				for v := uint64(0); v < g.Order(); v++ {
					scan = max(scan, comps.SizeOf(graph.Vertex(v)))
				}
				if got := comps.GiantSize(); got != scan {
					t.Fatalf("%s p=%v seed %d: GiantSize = %d, scan = %d", g.Name(), p, seed, got, scan)
				}
			}
		}
	}
}
