package percolation

import (
	"context"
	"testing"

	"faultroute/internal/graph"
)

func TestClusterStatsFullGraph(t *testing.T) {
	g := graph.MustMesh(2, 8)
	s := New(g, 1, 1)
	comps, err := Label(s)
	if err != nil {
		t.Fatal(err)
	}
	st := NewClusterStats(s, comps)
	if st.Theta != 1 || st.Clusters != 1 || st.Chi != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MeanCluster != float64(g.Order()) {
		t.Fatalf("mean cluster = %v", st.MeanCluster)
	}
}

func TestClusterStatsEmptyGraph(t *testing.T) {
	g := graph.MustMesh(2, 6)
	s := New(g, 0, 1)
	comps, err := Label(s)
	if err != nil {
		t.Fatal(err)
	}
	st := NewClusterStats(s, comps)
	if st.Theta != 1.0/float64(g.Order()) {
		t.Fatalf("theta = %v", st.Theta)
	}
	if st.MeanCluster != 1 {
		t.Fatalf("mean cluster = %v", st.MeanCluster)
	}
	// Every vertex is its own cluster; excluding the "giant" (one
	// singleton) gives chi = (N-1)/N.
	want := float64(g.Order()-1) / float64(g.Order())
	if st.Chi != want {
		t.Fatalf("chi = %v, want %v", st.Chi, want)
	}
}

func TestClusterStatsHistogramConsistent(t *testing.T) {
	g := graph.MustMesh(2, 12)
	s := New(g, 0.45, 7)
	comps, err := Label(s)
	if err != nil {
		t.Fatal(err)
	}
	st := NewClusterStats(s, comps)
	var clusters, vertices uint64
	for size, count := range st.SizeHistogram {
		clusters += count
		vertices += size * count
	}
	if clusters != st.Clusters {
		t.Fatalf("histogram clusters %d != %d", clusters, st.Clusters)
	}
	if vertices != g.Order() {
		t.Fatalf("histogram vertices %d != order %d", vertices, g.Order())
	}
}

func TestClusterScanSusceptibilityPeaksNearCriticality(t *testing.T) {
	// On M^2 the susceptibility (giant excluded) peaks around p = 1/2.
	g := graph.MustMesh(2, 24)
	ps := []float64{0.30, 0.50, 0.75}
	stats, err := ClusterScanSampledCtx(context.Background(), g, ps, 8, 3, 1, nil, defaultFactory(g))
	if err != nil {
		t.Fatal(err)
	}
	if stats[1].Chi <= stats[0].Chi || stats[1].Chi <= stats[2].Chi {
		t.Fatalf("chi not peaked at 0.5: %v %v %v",
			stats[0].Chi, stats[1].Chi, stats[2].Chi)
	}
	if stats[2].Theta <= stats[0].Theta {
		t.Fatalf("theta not increasing: %v vs %v", stats[0].Theta, stats[2].Theta)
	}
}

func TestClusterScanValidation(t *testing.T) {
	g := graph.MustRing(8)
	if _, err := ClusterScanSampledCtx(context.Background(), g, []float64{0.5}, 0, 1, 1, nil, defaultFactory(g)); err == nil {
		t.Fatal("zero trials accepted")
	}
}
