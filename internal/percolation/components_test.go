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
	if sizes[0] != comps.GiantSize() {
		t.Fatalf("largest size %d != giant %d", sizes[0], comps.GiantSize())
	}
}

func TestGiantVertexIsInGiant(t *testing.T) {
	// InGiant must accept exactly the vertices whose component attains
	// GiantSize, and at least one vertex must.
	g := graph.MustMesh(2, 15)
	comps, err := Label(New(g, 0.6, 13))
	if err != nil {
		t.Fatal(err)
	}
	giant := 0
	for v := graph.Vertex(0); uint64(v) < g.Order(); v++ {
		in := comps.SizeOf(v) == comps.GiantSize()
		if comps.InGiant(v) != in {
			t.Fatalf("InGiant(%d) = %v, but SizeOf = %d and giant = %d",
				v, !in, comps.SizeOf(v), comps.GiantSize())
		}
		if in {
			giant++
		}
	}
	if giant == 0 {
		t.Fatal("no vertex lies in the giant")
	}
}

func TestExploreFindsWholeCluster(t *testing.T) {
	// Searching from 0 to every vertex must find exactly 0's labeled
	// component: no member missed, no outsider reached.
	g := graph.MustMesh(2, 10)
	s := New(g, 0.5, 21)
	comps, err := Label(s)
	if err != nil {
		t.Fatal(err)
	}
	var size uint64
	for v := graph.Vertex(0); uint64(v) < g.Order(); v++ {
		conn, err := Connected(s, 0, v)
		if err != nil {
			t.Fatal(err)
		}
		if conn != comps.Connected(0, v) {
			t.Fatalf("vertex %d: search says %v, labeling says %v", v, conn, !conn)
		}
		if conn {
			size++
		}
	}
	if size != comps.SizeOf(0) {
		t.Fatalf("search found a cluster of %d, component size is %d", size, comps.SizeOf(0))
	}
}

func TestExploreBudgetStopsEarly(t *testing.T) {
	// On the all-open H_10 the antipodes are connected, but 16
	// expansions reach nowhere near distance 10: the budgeted search must
	// stop undecided, and the unbudgeted one must find the path.
	g := graph.MustHypercube(10)
	s := New(g, 1, 1)
	if _, decided, err := ConnectedLazy(s, 0, g.Antipode(0), 16); err != nil || decided {
		t.Fatalf("budget 16: decided=%v err=%v, want an undecided stop", decided, err)
	}
	if conn, decided, err := ConnectedLazy(s, 0, g.Antipode(0), 0); err != nil || !decided || !conn {
		t.Fatalf("unbudgeted: (%v, %v, %v), want connected", conn, decided, err)
	}
}

func TestLabelRejectsHugeGraphs(t *testing.T) {
	g := graph.MustHypercube(40)
	if _, err := Label(New(g, 0.5, 1)); err == nil {
		t.Fatal("labeling a 2^40-vertex graph should be refused")
	}
}
