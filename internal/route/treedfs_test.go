package route

import (
	"errors"
	"testing"

	"faultroute/internal/graph"
	"faultroute/internal/percolation"
	"faultroute/internal/probe"
)

func TestDoubleTreeOracleOnFullTree(t *testing.T) {
	g := graph.MustDoubleTree(5)
	s := percolation.New(g, 1, 1)
	pr := probe.NewOracle(s, 0)
	path, err := NewDoubleTreeOracle().Route(pr, g.RootA(), g.RootB())
	if err != nil {
		t.Fatal(err)
	}
	if path.Len() != 2*g.Depth() {
		t.Fatalf("path length = %d, want %d", path.Len(), 2*g.Depth())
	}
	if err := Validate(s, path, g.RootA(), g.RootB()); err != nil {
		t.Fatal(err)
	}
	// Fault-free DFS walks straight down: 2 probes per level.
	if pr.Count() != 2*g.Depth() {
		t.Fatalf("probes = %d, want %d", pr.Count(), 2*g.Depth())
	}
}

func TestDoubleTreeOracleReversedEndpoints(t *testing.T) {
	g := graph.MustDoubleTree(4)
	s := percolation.New(g, 1, 1)
	pr := probe.NewOracle(s, 0)
	path, err := NewDoubleTreeOracle().Route(pr, g.RootB(), g.RootA())
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(s, path, g.RootB(), g.RootA()); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleTreeOracleRejectsNonRoots(t *testing.T) {
	g := graph.MustDoubleTree(4)
	s := percolation.New(g, 1, 1)
	pr := probe.NewOracle(s, 0)
	if _, err := NewDoubleTreeOracle().Route(pr, g.RootA(), g.Leaf(0)); err == nil {
		t.Fatal("non-root endpoints accepted")
	}
}

func TestDoubleTreeOracleRejectsWrongGraph(t *testing.T) {
	s := percolation.New(graph.MustRing(8), 1, 1)
	pr := probe.NewOracle(s, 0)
	if _, err := NewDoubleTreeOracle().Route(pr, 0, 4); err == nil {
		t.Fatal("wrong graph accepted")
	}
}

func TestDoubleTreeOracleMatchesRootsLinked(t *testing.T) {
	// The router succeeds exactly when a mirrored open branch exists.
	g := graph.MustDoubleTree(7)
	for seed := uint64(0); seed < 40; seed++ {
		s := percolation.New(g, 0.8, seed)
		linked, err := DoubleTreeRootsLinked(s, 0)
		if err != nil {
			t.Fatal(err)
		}
		pr := probe.NewOracle(s, 0)
		path, rerr := NewDoubleTreeOracle().Route(pr, g.RootA(), g.RootB())
		switch {
		case rerr == nil:
			if !linked {
				t.Fatalf("seed %d: router found a branch pair but RootsLinked says none", seed)
			}
			if err := Validate(s, path, g.RootA(), g.RootB()); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		case errors.Is(rerr, ErrNoPath):
			if linked {
				t.Fatalf("seed %d: RootsLinked says linked but router failed", seed)
			}
		default:
			t.Fatalf("seed %d: %v", seed, rerr)
		}
	}
}

func TestDoubleTreeOracleSuccessImpliesConnectivity(t *testing.T) {
	// Branch-pair success must imply genuine connectivity (the converse
	// can fail: connectivity may exist via multi-leaf detours).
	g := graph.MustDoubleTree(6)
	for seed := uint64(0); seed < 30; seed++ {
		s := percolation.New(g, 0.75, seed)
		pr := probe.NewOracle(s, 0)
		if _, err := NewDoubleTreeOracle().Route(pr, g.RootA(), g.RootB()); err != nil {
			continue
		}
		comps, err := percolation.Label(s)
		if err != nil {
			t.Fatal(err)
		}
		if !comps.Connected(g.RootA(), g.RootB()) {
			t.Fatalf("seed %d: router path exists but labeling disagrees", seed)
		}
	}
}

func TestDoubleTreeRootsLinkedBudget(t *testing.T) {
	g := graph.MustDoubleTree(10)
	s := percolation.New(g, 1, 1)
	if _, err := DoubleTreeRootsLinked(s, 1); !errors.Is(err, probe.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	linked, err := DoubleTreeRootsLinked(s, 0)
	if err != nil || !linked {
		t.Fatalf("full tree not linked: %v %v", linked, err)
	}
}

func TestDoubleTreeRootsLinkedClosedTree(t *testing.T) {
	g := graph.MustDoubleTree(6)
	s := percolation.New(g, 0, 1)
	linked, err := DoubleTreeRootsLinked(s, 0)
	if err != nil || linked {
		t.Fatalf("closed tree linked: %v %v", linked, err)
	}
}

// TestDoubleTreeRootsLinkedDeepestTree fills the search's fixed frame
// array: on the deepest tree NewDoubleTree builds, fully open, the
// search holds one frame per level down to the leaves.
func TestDoubleTreeRootsLinkedDeepestTree(t *testing.T) {
	g := graph.MustDoubleTree(maxDoubleTreeDepth)
	linked, err := DoubleTreeRootsLinked(percolation.New(g, 1, 1), 0)
	if err != nil || !linked {
		t.Fatalf("open depth-%d tree not linked: %v %v", maxDoubleTreeDepth, linked, err)
	}
	if _, err := graph.NewDoubleTree(maxDoubleTreeDepth + 1); err == nil {
		t.Fatalf("NewDoubleTree accepts depth %d; grow maxDoubleTreeDepth with it", maxDoubleTreeDepth+1)
	}
}

func TestDoubleTreeOracleCheapOnDeepTrees(t *testing.T) {
	// Theorem 9: expected O(n) probes. On a depth-30 tree (3*2^30
	// vertices, never materialized) the router should succeed with a few
	// hundred probes when the mirrored branch exists.
	g := graph.MustDoubleTree(30)
	succ := 0
	for seed := uint64(0); seed < 20; seed++ {
		s := percolation.New(g, 0.9, seed)
		pr := probe.NewOracle(s, 100000)
		path, err := NewDoubleTreeOracle().Route(pr, g.RootA(), g.RootB())
		if err != nil {
			continue
		}
		succ++
		if err := Validate(s, path, g.RootA(), g.RootB()); err != nil {
			t.Fatal(err)
		}
		if pr.Count() > 5000 {
			t.Fatalf("seed %d: oracle used %d probes at depth 30", seed, pr.Count())
		}
	}
	if succ == 0 {
		t.Fatal("no successes at p=0.9, depth 30 (supercritical; expected mostly successes)")
	}
}

func TestDoubleTreeLocalVsOracleGap(t *testing.T) {
	// The Theorem 7 / Theorem 9 separation at a fixed modest depth:
	// local BFS pays for the whole subcritical exploration, the oracle
	// pays O(depth).
	g := graph.MustDoubleTree(10)
	var localTotal, oracleTotal, n int
	for seed := uint64(0); seed < 20; seed++ {
		s := percolation.New(g, 0.8, seed)
		linked, err := DoubleTreeRootsLinked(s, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !linked {
			continue
		}
		prO := probe.NewOracle(s, 0)
		if _, err := NewDoubleTreeOracle().Route(prO, g.RootA(), g.RootB()); err != nil {
			t.Fatal(err)
		}
		prL := probe.NewLocal(s, g.RootA(), 0)
		if _, err := NewBFSLocal().Route(prL, g.RootA(), g.RootB()); err != nil {
			t.Fatal(err)
		}
		localTotal += prL.Count()
		oracleTotal += prO.Count()
		n++
	}
	if n < 3 {
		t.Fatalf("only %d linked trials", n)
	}
	if oracleTotal*3 >= localTotal {
		t.Fatalf("no clear gap: local %d vs oracle %d over %d trials",
			localTotal, oracleTotal, n)
	}
}
