package percolation

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"faultroute/internal/graph"
)

func TestSampleClampsP(t *testing.T) {
	g := graph.MustRing(5)
	if p := New(g, -0.5, 1).P(); p != 0 {
		t.Fatalf("p = %v, want 0", p)
	}
	if p := New(g, 1.5, 1).P(); p != 1 {
		t.Fatalf("p = %v, want 1", p)
	}
}

func TestSampleExtremes(t *testing.T) {
	g := graph.MustHypercube(6)
	all := New(g, 1, 7)
	none := New(g, 0, 7)
	graph.ForEachEdge(g, func(u, v graph.Vertex, id uint64) bool {
		if !all.OpenID(id) {
			t.Fatalf("edge %d closed at p=1", id)
		}
		if none.OpenID(id) {
			t.Fatalf("edge %d open at p=0", id)
		}
		return true
	})
}

func TestSampleOpenRejectsNonEdge(t *testing.T) {
	g := graph.MustHypercube(5)
	s := New(g, 0.5, 1)
	if _, err := s.Open(0, 3); !errors.Is(err, ErrNotEdge) {
		t.Fatalf("err = %v, want ErrNotEdge", err)
	}
}

func TestSampleDeterministic(t *testing.T) {
	g := graph.MustMesh(2, 8)
	s1 := New(g, 0.6, 42)
	s2 := New(g, 0.6, 42)
	graph.ForEachEdge(g, func(u, v graph.Vertex, id uint64) bool {
		a, err1 := s1.Open(u, v)
		b, err2 := s2.Open(u, v)
		if err1 != nil || err2 != nil || a != b {
			t.Fatalf("nondeterministic edge {%d,%d}", u, v)
		}
		return true
	})
}

func TestSampleSeedSensitivity(t *testing.T) {
	g := graph.MustHypercube(8)
	s1, s2 := New(g, 0.5, 1), New(g, 0.5, 2)
	diff := 0
	total := 0
	graph.ForEachEdge(g, func(u, v graph.Vertex, id uint64) bool {
		total++
		if s1.OpenID(id) != s2.OpenID(id) {
			diff++
		}
		return true
	})
	// Two p=1/2 samples should disagree on about half the edges.
	frac := float64(diff) / float64(total)
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("seed change flipped %.2f of edges, want ~0.5", frac)
	}
}

func TestSampleOpenFrequency(t *testing.T) {
	g := graph.MustHypercube(12) // 24576 edges
	for _, p := range []float64{0.1, 0.5, 0.9} {
		s := New(g, p, 99)
		var open, total uint64
		graph.ForEachEdge(g, func(u, v graph.Vertex, id uint64) bool {
			total++
			if s.OpenEdgeID(u, v, id) {
				open++
			}
			return true
		})
		got := float64(open) / float64(total)
		tol := 5 * math.Sqrt(p*(1-p)/float64(total))
		if math.Abs(got-p) > tol {
			t.Errorf("open fraction at p=%.1f: got %.4f (tol %.4f)", p, got, tol)
		}
	}
}

func TestSampleMonotoneCoupling(t *testing.T) {
	// With the same seed, every edge open at p must be open at p' > p:
	// the standard monotone coupling, which the threshold bisection
	// relies on.
	g := graph.MustMesh(2, 10)
	if err := quick.Check(func(seed uint64) bool {
		lo := New(g, 0.3, seed)
		hi := New(g, 0.7, seed)
		ok := true
		graph.ForEachEdge(g, func(u, v graph.Vertex, id uint64) bool {
			if lo.OpenID(id) && !hi.OpenID(id) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestUnionFindBasics(t *testing.T) {
	uf := NewUnionFind(10)
	if uf.Sets() != 10 {
		t.Fatalf("Sets = %d", uf.Sets())
	}
	if !uf.Union(0, 1) || !uf.Union(1, 2) {
		t.Fatal("unions should merge")
	}
	if uf.Union(0, 2) {
		t.Fatal("redundant union reported a merge")
	}
	if !uf.Same(0, 2) || uf.Same(0, 3) {
		t.Fatal("Same is wrong")
	}
	if uf.SizeOf(1) != 3 {
		t.Fatalf("SizeOf = %d, want 3", uf.SizeOf(1))
	}
	if uf.Sets() != 8 {
		t.Fatalf("Sets = %d, want 8", uf.Sets())
	}
}

func TestUnionFindManyUnionsProperty(t *testing.T) {
	// Property: after any union sequence, sum of distinct root sizes
	// equals the universe and Same is an equivalence consistent with the
	// union history (checked via a naive labeling).
	if err := quick.Check(func(pairs []uint16) bool {
		const n = 50
		uf := NewUnionFind(n)
		naive := make([]int, n)
		for i := range naive {
			naive[i] = i
		}
		relabel := func(from, to int) {
			for i := range naive {
				if naive[i] == from {
					naive[i] = to
				}
			}
		}
		for _, pr := range pairs {
			a := uint64(pr) % n
			b := uint64(pr>>8) % n
			uf.Union(a, b)
			if naive[a] != naive[b] {
				relabel(naive[a], naive[b])
			}
		}
		for i := uint64(0); i < n; i++ {
			for j := uint64(0); j < n; j++ {
				if uf.Same(i, j) != (naive[i] == naive[j]) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
