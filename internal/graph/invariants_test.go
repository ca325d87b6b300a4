// Package graph_test holds the cross-family invariant harness. It lives
// in the external test package so it can enumerate the WIRE registry
// (api.GraphFamilies / api.SampleGraphSpecs): every family accepted by
// api/compile.go is constructed here and pushed through the shared
// property tests, so adding a family to the registry without test
// samples — or with an implementation violating the Graph contract —
// fails the build instead of silently escaping coverage.
package graph_test

import (
	"fmt"
	"testing"

	"faultroute/api"
	"faultroute/internal/graph"
	"faultroute/internal/rng"
)

// allTestGraphs constructs every sample instance of every wire family.
func allTestGraphs(t *testing.T) []graph.Graph {
	t.Helper()
	specs := api.SampleGraphSpecs()
	graphs := make([]graph.Graph, 0, len(specs))
	for _, gs := range specs {
		g, err := api.NewGraph(gs)
		if err != nil {
			t.Fatalf("sample spec %+v does not construct: %v", gs, err)
		}
		graphs = append(graphs, g)
	}
	return graphs
}

func containsVertex(vs []graph.Vertex, v graph.Vertex) bool {
	for _, w := range vs {
		if w == v {
			return true
		}
	}
	return false
}

// TestEveryFamilyHasSamples is the registry-drift gate: a family added
// to api/compile.go must ship at least one sample GraphSpec, or the
// invariant suite would silently skip it.
func TestEveryFamilyHasSamples(t *testing.T) {
	families := api.GraphFamilies()
	if len(families) == 0 {
		t.Fatal("registry lists no families")
	}
	sampled := make(map[string]int)
	for _, gs := range api.SampleGraphSpecs() {
		sampled[gs.Family]++
	}
	for _, fam := range families {
		if sampled[fam] == 0 {
			t.Errorf("family %q has no sample specs — the invariant suite cannot cover it", fam)
		}
	}
	for fam := range sampled {
		found := false
		for _, want := range families {
			if fam == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("sample spec names unknown family %q", fam)
		}
	}
}

// TestSamplesAreNormalForms pins that every sample spec is its own
// normalization: the invariant suite must exercise exactly the canonical
// specs the cache hashes.
func TestSamplesAreNormalForms(t *testing.T) {
	for _, gs := range api.SampleGraphSpecs() {
		gs := gs
		t.Run(fmt.Sprintf("%s_%+v", gs.Family, gs), func(t *testing.T) {
			dst := uint64(0)
			req := api.Request{Kind: api.KindEstimate, Estimate: &api.EstimateSpec{
				Graph: gs, P: 0.5, Trials: 1, Dst: &dst,
			}}
			norm, err := api.Normalize(req)
			if err != nil {
				t.Fatalf("sample spec does not normalize: %v", err)
			}
			if norm.Estimate.Graph != gs {
				t.Fatalf("sample spec is not canonical: %+v normalizes to %+v", gs, norm.Estimate.Graph)
			}
		})
	}
}

func TestConstructionIsDeterministic(t *testing.T) {
	for _, gs := range api.SampleGraphSpecs() {
		gs := gs
		a, err := api.NewGraph(gs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := api.NewGraph(gs)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(a.Name(), func(t *testing.T) {
			if a.Order() != b.Order() {
				t.Fatalf("order differs across builds: %d vs %d", a.Order(), b.Order())
			}
			for v := graph.Vertex(0); uint64(v) < a.Order(); v++ {
				if a.Degree(v) != b.Degree(v) {
					t.Fatalf("degree differs at %d", v)
				}
				for i := 0; i < a.Degree(v); i++ {
					w := a.Neighbor(v, i)
					if w != b.Neighbor(v, i) {
						t.Fatalf("neighbor (%d,%d) differs", v, i)
					}
					idA, okA := a.EdgeID(v, w)
					idB, okB := b.EdgeID(v, w)
					if !okA || !okB || idA != idB {
						t.Fatalf("edge ID for {%d,%d} differs: (%d,%v) vs (%d,%v)", v, w, idA, okA, idB, okB)
					}
				}
			}
		})
	}
}

func TestFamiliesAreConnected(t *testing.T) {
	// Every wire family is a connected topology: routing between
	// arbitrary endpoints must be meaningful in the un-percolated graph.
	for _, g := range allTestGraphs(t) {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			for v := graph.Vertex(1); uint64(v) < g.Order(); v += 1 + graph.Vertex(g.Order()/17) {
				if graph.BFSDist(g, 0, v) < 0 {
					t.Fatalf("vertex %d unreachable from 0", v)
				}
			}
		})
	}
}

func TestNeighborSymmetry(t *testing.T) {
	for _, g := range allTestGraphs(t) {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			var buf, buf2 []graph.Vertex
			for v := graph.Vertex(0); uint64(v) < g.Order(); v++ {
				buf = graph.Neighbors(g, v, buf[:0])
				for _, w := range buf {
					if w == v {
						t.Fatalf("self-loop at %d", v)
					}
					if uint64(w) >= g.Order() {
						t.Fatalf("neighbor %d of %d out of range", w, v)
					}
					buf2 = graph.Neighbors(g, w, buf2[:0])
					if !containsVertex(buf2, v) {
						t.Fatalf("asymmetric edge: %d lists %d but not vice versa", v, w)
					}
				}
			}
		})
	}
}

func TestNoDuplicateNeighbors(t *testing.T) {
	for _, g := range allTestGraphs(t) {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			var buf []graph.Vertex
			for v := graph.Vertex(0); uint64(v) < g.Order(); v++ {
				buf = graph.Neighbors(g, v, buf[:0])
				seen := make(map[graph.Vertex]bool, len(buf))
				for _, w := range buf {
					if seen[w] {
						t.Fatalf("vertex %d lists neighbor %d twice", v, w)
					}
					seen[w] = true
				}
			}
		})
	}
}

func TestEdgeIDMatchesAdjacency(t *testing.T) {
	for _, g := range allTestGraphs(t) {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			var buf []graph.Vertex
			for v := graph.Vertex(0); uint64(v) < g.Order(); v++ {
				buf = graph.Neighbors(g, v, buf[:0])
				adj := make(map[graph.Vertex]bool, len(buf))
				for _, w := range buf {
					adj[w] = true
					idVW, ok := g.EdgeID(v, w)
					if !ok {
						t.Fatalf("EdgeID rejects adjacent pair {%d,%d}", v, w)
					}
					idWV, ok := g.EdgeID(w, v)
					if !ok || idVW != idWV {
						t.Fatalf("EdgeID not symmetric on {%d,%d}: %d vs %d", v, w, idVW, idWV)
					}
				}
				// A sample of non-neighbors must be rejected.
				s := rng.NewStream(uint64(v) + 1)
				for k := 0; k < 8; k++ {
					w := graph.Vertex(s.Uint64n(g.Order()))
					if w == v || adj[w] {
						continue
					}
					if _, ok := g.EdgeID(v, w); ok {
						t.Fatalf("EdgeID accepts non-edge {%d,%d}", v, w)
					}
				}
				if _, ok := g.EdgeID(v, v); ok {
					t.Fatalf("EdgeID accepts self-loop at %d", v)
				}
			}
		})
	}
}

func TestEdgeIDUnique(t *testing.T) {
	for _, g := range allTestGraphs(t) {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			seen := make(map[uint64][2]graph.Vertex)
			graph.ForEachEdge(g, func(u, v graph.Vertex, id uint64) bool {
				if prev, dup := seen[id]; dup {
					t.Fatalf("edge ID %d assigned to both {%d,%d} and {%d,%d}",
						id, prev[0], prev[1], u, v)
				}
				seen[id] = [2]graph.Vertex{u, v}
				return true
			})
		})
	}
}

// TestEdgeIDBelowBound checks graph.EdgeSpace on every family: each
// must declare a bound, and every edge's ID must lie below it. The
// probe memo indexes a flat table by ID up to that bound, so an ID at
// or past it would index out of range. Kleinberg runs at r = 0 and
// r = 2 on top of its samples (long-range IDs follow the grid's), and
// each constant-degree family built on the shared small adjacency runs
// through its samples.
func TestEdgeIDBelowBound(t *testing.T) {
	graphs := append(allTestGraphs(t),
		graph.MustKleinberg(9, 0, 3), graph.MustKleinberg(9, 2, 3))
	for _, g := range graphs {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			es, ok := g.(graph.EdgeSpace)
			if !ok {
				t.Fatalf("%T does not implement graph.EdgeSpace", g)
			}
			bound := es.EdgeIDBound()
			edges := 0
			graph.ForEachEdge(g, func(u, v graph.Vertex, id uint64) bool {
				if id >= bound {
					t.Fatalf("edge {%d,%d} has ID %d, not below the bound %d", u, v, id, bound)
				}
				edges++
				return true
			})
			if edges == 0 {
				t.Fatal("graph has no edges to check")
			}
		})
	}
}

func TestForEachEdgeCountsHandshake(t *testing.T) {
	// Sum of degrees must equal twice the edge count (handshake lemma),
	// confirming ForEachEdge visits each edge exactly once.
	for _, g := range allTestGraphs(t) {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			var degSum uint64
			for v := graph.Vertex(0); uint64(v) < g.Order(); v++ {
				degSum += uint64(g.Degree(v))
			}
			if m := graph.NumEdges(g); degSum != 2*m {
				t.Fatalf("degree sum %d != 2 * edges %d", degSum, m)
			}
		})
	}
}

func TestMetricAgreesWithBFS(t *testing.T) {
	for _, g := range allTestGraphs(t) {
		m, ok := g.(graph.Metric)
		if !ok || g.Order() > 300 {
			continue
		}
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			s := rng.NewStream(99)
			for k := 0; k < 30; k++ {
				u := graph.Vertex(s.Uint64n(g.Order()))
				v := graph.Vertex(s.Uint64n(g.Order()))
				want := graph.BFSDist(g, u, v)
				if got := m.Dist(u, v); got != want {
					t.Fatalf("Dist(%d,%d) = %d, BFS says %d", u, v, got, want)
				}
			}
		})
	}
}

func TestUnderlayDominatesBFS(t *testing.T) {
	// An Underlay distance is an UPPER bound on the true distance (the
	// underlay's edges all exist; shortcuts only shrink distances), must
	// be symmetric, and must be zero exactly on the diagonal. Graphs
	// implementing the exact Metric are exempt — DistanceOf prefers the
	// metric, and TestMetricAgreesWithBFS pins it.
	covered := false
	for _, g := range allTestGraphs(t) {
		und, ok := g.(graph.Underlay)
		if ok {
			if _, isMetric := g.(graph.Metric); isMetric {
				t.Fatalf("%s implements both Metric and Underlay; Underlay is for graphs whose lattice distance is NOT exact", g.Name())
			}
		}
		if !ok || g.Order() > 300 {
			continue
		}
		covered = true
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			s := rng.NewStream(31)
			for k := 0; k < 30; k++ {
				u := graph.Vertex(s.Uint64n(g.Order()))
				v := graph.Vertex(s.Uint64n(g.Order()))
				ud := und.UnderlayDist(u, v)
				if ud != und.UnderlayDist(v, u) {
					t.Fatalf("UnderlayDist not symmetric on (%d,%d)", u, v)
				}
				if (ud == 0) != (u == v) {
					t.Fatalf("UnderlayDist(%d,%d) = %d", u, v, ud)
				}
				if bfs := graph.BFSDist(g, u, v); bfs < 0 || bfs > ud {
					t.Fatalf("BFS distance %d exceeds underlay distance %d for (%d,%d)", bfs, ud, u, v)
				}
			}
		})
	}
	if !covered {
		t.Fatal("no sample graph implements Underlay — the small-world families lost their samples")
	}
}

func TestShortestPathIsValidAndShortest(t *testing.T) {
	for _, g := range allTestGraphs(t) {
		pm, ok := g.(graph.PathMaker)
		if !ok {
			continue
		}
		met, isMetric := g.(graph.Metric)
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			s := rng.NewStream(7)
			for k := 0; k < 25; k++ {
				u := graph.Vertex(s.Uint64n(g.Order()))
				v := graph.Vertex(s.Uint64n(g.Order()))
				path := pm.ShortestPath(u, v)
				if len(path) == 0 || path[0] != u || path[len(path)-1] != v {
					t.Fatalf("path endpoints wrong: %v for (%d,%d)", path, u, v)
				}
				for i := 1; i < len(path); i++ {
					if !graph.IsEdge(g, path[i-1], path[i]) {
						t.Fatalf("path step {%d,%d} is not an edge", path[i-1], path[i])
					}
				}
				if isMetric {
					if want := met.Dist(u, v); len(path)-1 != want {
						t.Fatalf("path length %d != distance %d for (%d,%d)",
							len(path)-1, want, u, v)
					}
				}
			}
		})
	}
}

func TestDegreeNeighborConsistency(t *testing.T) {
	// Neighbor must be defined exactly for indices [0, Degree).
	for _, g := range allTestGraphs(t) {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			for v := graph.Vertex(0); uint64(v) < g.Order(); v++ {
				d := g.Degree(v)
				if d <= 0 {
					t.Fatalf("vertex %d has degree %d", v, d)
				}
				for i := 0; i < d; i++ {
					_ = g.Neighbor(v, i) // must not panic
				}
			}
		})
	}
}
