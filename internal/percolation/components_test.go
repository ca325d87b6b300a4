package percolation

import (
	"testing"

	"faultroute/internal/graph"
	"faultroute/internal/rng"
)

func TestLabelFullGraphIsConnected(t *testing.T) {
	g := graph.MustHypercube(8)
	comps, err := Label(New(g, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if comps.Count() != 1 {
		t.Fatalf("components = %d, want 1", comps.Count())
	}
	if comps.GiantSize() != g.Order() {
		t.Fatalf("giant = %d, want %d", comps.GiantSize(), g.Order())
	}
	if comps.GiantFraction() != 1 {
		t.Fatalf("giant fraction = %v", comps.GiantFraction())
	}
}

func TestLabelEmptyGraphIsIsolated(t *testing.T) {
	g := graph.MustMesh(2, 6)
	comps, err := Label(New(g, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if comps.Count() != g.Order() {
		t.Fatalf("components = %d, want %d", comps.Count(), g.Order())
	}
	if comps.GiantSize() != 1 {
		t.Fatalf("giant = %d, want 1", comps.GiantSize())
	}
}

func TestLabelMatchesBFSExploration(t *testing.T) {
	// Exact labeling and the unbudgeted lazy search must agree on
	// connectivity for many random pairs.
	g := graph.MustMesh(2, 12)
	s := New(g, 0.55, 77)
	comps, err := Label(s)
	if err != nil {
		t.Fatal(err)
	}
	str := rng.NewStream(5)
	for k := 0; k < 100; k++ {
		u := graph.Vertex(str.Uint64n(g.Order()))
		v := graph.Vertex(str.Uint64n(g.Order()))
		want := comps.Connected(u, v)
		got, decided, err := ConnectedLazy(s, u, v, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !decided {
			t.Fatal("unbudgeted search must decide")
		}
		if got != want {
			t.Fatalf("connectivity mismatch for (%d,%d): label=%v bfs=%v", u, v, want, got)
		}
	}
}

func TestComponentSizesSumToOrder(t *testing.T) {
	g := graph.MustHypercube(9)
	comps, err := Label(New(g, 0.2, 3))
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, sz := range comps.SizesDescending() {
		sum += sz
	}
	if sum != g.Order() {
		t.Fatalf("component sizes sum to %d, want %d", sum, g.Order())
	}
}

func TestSizesDescendingSorted(t *testing.T) {
	g := graph.MustMesh(2, 10)
	comps, err := Label(New(g, 0.45, 9))
	if err != nil {
		t.Fatal(err)
	}
	sizes := comps.SizesDescending()
	for i := 1; i < len(sizes); i++ {
		if sizes[i] > sizes[i-1] {
			t.Fatal("sizes not descending")
		}
	}
	if comps.SecondSize() > comps.GiantSize() {
		t.Fatal("second larger than giant")
	}
}

func TestGiantVertexIsInGiant(t *testing.T) {
	g := graph.MustMesh(2, 15)
	comps, err := Label(New(g, 0.6, 13))
	if err != nil {
		t.Fatal(err)
	}
	v := comps.GiantVertex()
	if !comps.InGiant(v) {
		t.Fatalf("GiantVertex %d not in giant", v)
	}
	if comps.SizeOf(v) != comps.GiantSize() {
		t.Fatalf("SizeOf(GiantVertex) = %d, giant = %d", comps.SizeOf(v), comps.GiantSize())
	}
}

func TestExploreFindsWholeCluster(t *testing.T) {
	g := graph.MustMesh(2, 10)
	s := New(g, 0.5, 21)
	comps, err := Label(s)
	if err != nil {
		t.Fatal(err)
	}
	c := Explore(s, 0, 0)
	if !c.Exhausted {
		t.Fatal("unbudgeted exploration not exhausted")
	}
	if c.Size() != comps.SizeOf(0) {
		t.Fatalf("cluster size %d != component size %d", c.Size(), comps.SizeOf(0))
	}
	for _, v := range c.Vertices {
		if !comps.Connected(0, v) {
			t.Fatalf("cluster vertex %d not connected to 0 per labeling", v)
		}
	}
}

func TestExploreDistancesAreOpenPathDistances(t *testing.T) {
	g := graph.MustRing(20)
	s := New(g, 1, 1) // all edges open
	c := Explore(s, 0, 0)
	for _, v := range c.Vertices {
		d, ok := c.Dist(v)
		if !ok {
			t.Fatalf("cluster vertex %d has no distance", v)
		}
		if want := g.Dist(0, v); d != want {
			t.Fatalf("dist to %d = %d, want %d", v, d, want)
		}
	}
}

func TestExploreIntoReuseMatchesFreshExplore(t *testing.T) {
	// One Cluster recycled across many samples (the O(1) epoch reset)
	// must report exactly what a fresh exploration of each sample does.
	g := graph.MustMesh(2, 12)
	var reused Cluster
	for seed := uint64(0); seed < 20; seed++ {
		s := New(g, 0.45, seed)
		ExploreInto(&reused, s, 0, 0)
		fresh := Explore(s, 0, 0)
		if reused.Size() != fresh.Size() || reused.EdgesProbed != fresh.EdgesProbed ||
			reused.Exhausted != fresh.Exhausted {
			t.Fatalf("seed %d: reused (size=%d edges=%d exhausted=%v) != fresh (size=%d edges=%d exhausted=%v)",
				seed, reused.Size(), reused.EdgesProbed, reused.Exhausted,
				fresh.Size(), fresh.EdgesProbed, fresh.Exhausted)
		}
		for i, v := range fresh.Vertices {
			if reused.Vertices[i] != v {
				t.Fatalf("seed %d: BFS order diverges at %d", seed, i)
			}
			rd, rok := reused.Dist(v)
			fd, fok := fresh.Dist(v)
			if !rok || !fok || rd != fd {
				t.Fatalf("seed %d: dist to %d: reused (%d,%v) fresh (%d,%v)", seed, v, rd, rok, fd, fok)
			}
		}
	}
}

func TestExploreBudgetStopsEarly(t *testing.T) {
	g := graph.MustHypercube(10)
	s := New(g, 1, 1)
	c := Explore(s, 0, 16)
	if c.Exhausted {
		t.Fatal("budgeted exploration claims exhaustion")
	}
	if c.Size() != 16 {
		t.Fatalf("visited %d vertices, want exactly the budget 16", c.Size())
	}
}

func TestPercolationDistOnOpenGraphEqualsMetric(t *testing.T) {
	g := graph.MustMesh(2, 8)
	s := New(g, 1, 1)
	d, decided := PercolationDist(s, 0, graph.Vertex(g.Order()-1), 0)
	if !decided {
		t.Fatal("undecided on full graph")
	}
	if want := g.Dist(0, graph.Vertex(g.Order()-1)); d != want {
		t.Fatalf("percolation distance %d, want %d", d, want)
	}
}

func TestPercolationDistUnreachable(t *testing.T) {
	g := graph.MustRing(10)
	s := New(g, 0, 1)
	d, decided := PercolationDist(s, 0, 5, 0)
	if !decided || d != -1 {
		t.Fatalf("got (%d, %v), want (-1, true)", d, decided)
	}
}

func TestLabelRejectsHugeGraphs(t *testing.T) {
	g := graph.MustHypercube(40)
	if _, err := Label(New(g, 0.5, 1)); err == nil {
		t.Fatal("labeling a 2^40-vertex graph should be refused")
	}
}
