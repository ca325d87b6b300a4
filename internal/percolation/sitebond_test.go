package percolation

import (
	"math"
	"testing"

	"faultroute/internal/graph"
)

func TestSiteBondAllAliveMatchesBond(t *testing.T) {
	g := graph.MustMesh(2, 8)
	bond := New(g, 0.6, 9)
	both := NewSiteBond(g, 0.6, 1, 9)
	graph.ForEachEdge(g, func(u, v graph.Vertex, id uint64) bool {
		a, _ := bond.Open(u, v)
		b, _ := both.Open(u, v)
		if a != b {
			t.Fatalf("pSite=1 changed edge {%d,%d}", u, v)
		}
		return true
	})
}

func TestSiteBondDeadVertexIsolates(t *testing.T) {
	g := graph.MustHypercube(8)
	s := NewSiteBond(g, 1, 0.5, 3)
	var dead graph.Vertex
	found := false
	for v := graph.Vertex(0); uint64(v) < g.Order(); v++ {
		if !s.Alive(v) {
			dead, found = v, true
			break
		}
	}
	if !found {
		t.Fatal("no dead vertex at pSite=0.5")
	}
	for i := 0; i < g.Degree(dead); i++ {
		open, err := s.Open(dead, g.Neighbor(dead, i))
		if err != nil {
			t.Fatal(err)
		}
		if open {
			t.Fatalf("edge incident to dead vertex %d is open", dead)
		}
	}
}

func TestSiteBondAliveFrequency(t *testing.T) {
	g := graph.MustHypercube(12)
	for _, ps := range []float64{0.3, 0.7} {
		s := NewSiteBond(g, 1, ps, 11)
		alive := 0
		for v := graph.Vertex(0); uint64(v) < g.Order(); v++ {
			if s.Alive(v) {
				alive++
			}
		}
		got := float64(alive) / float64(g.Order())
		tol := 5 * math.Sqrt(ps*(1-ps)/float64(g.Order()))
		if math.Abs(got-ps) > tol {
			t.Fatalf("alive fraction %v at pSite=%v (tol %v)", got, ps, tol)
		}
	}
}

func TestSiteBondSitesIndependentOfBonds(t *testing.T) {
	// The same seed must not correlate a vertex's liveness with the
	// bonds around it: compare liveness across pure-site samples and
	// openness across pure-bond samples with equal seeds.
	g := graph.MustHypercube(10)
	site := NewSiteBond(g, 1, 0.5, 77)
	bond := New(g, 0.5, 77)
	agree := 0
	total := 0
	for v := graph.Vertex(0); uint64(v) < g.Order(); v++ {
		id, ok := g.EdgeID(v, g.Neighbor(v, 0))
		if !ok {
			continue
		}
		total++
		if site.Alive(v) == bond.OpenID(id) {
			agree++
		}
	}
	frac := float64(agree) / float64(total)
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("site and bond coins correlated: agreement %v", frac)
	}
}

func TestSiteBondLabelTreatsDeadAsSingletons(t *testing.T) {
	g := graph.MustMesh(2, 10)
	s := NewSiteBond(g, 1, 0.6, 5)
	comps, err := Label(s)
	if err != nil {
		t.Fatal(err)
	}
	for v := graph.Vertex(0); uint64(v) < g.Order(); v++ {
		if !s.Alive(v) && comps.SizeOf(v) != 1 {
			t.Fatalf("dead vertex %d in a component of size %d", v, comps.SizeOf(v))
		}
	}
}

func TestSiteBondClampsProbabilities(t *testing.T) {
	g := graph.MustRing(5)
	s := NewSiteBond(g, 2, -1, 1)
	if s.P() != 1 || s.pSite != 0 {
		t.Fatalf("clamp failed: p=%v pSite=%v", s.P(), s.pSite)
	}
}

func TestSiteBondExploreRespectsLiveness(t *testing.T) {
	g := graph.MustHypercube(8)
	s := NewSiteBond(g, 0.9, 0.7, 13)
	if !s.Alive(0) {
		t.Skip("origin dead in this sample")
	}
	// The bidirectional search grows 0's cluster; it must never step
	// onto a dead vertex, so no dead vertex is connected to the origin.
	for v := graph.Vertex(1); uint64(v) < g.Order(); v++ {
		conn, err := Connected(s, 0, v)
		if err != nil {
			t.Fatal(err)
		}
		if conn && !s.Alive(v) {
			t.Fatalf("search reached dead vertex %d", v)
		}
	}
}
