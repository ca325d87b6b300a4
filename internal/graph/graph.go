// Package graph defines the implicit-graph abstraction used throughout
// faultroute, together with every topology studied in "Routing Complexity
// of Faulty Networks" (Angel, Benjamini, Ofek, Wieder; PODC 2004):
// the hypercube, the d-dimensional mesh (and torus), the double binary
// tree, the complete graph (substrate of G(n,p)), and the Section 6
// open-question families (de Bruijn, shuffle-exchange, butterfly,
// cycle-plus-random-matching).
//
// Graphs are implicit: adjacency is computed, never stored, so a graph
// with 2^n vertices costs O(1) memory. Vertices are dense indices in
// [0, Order()), which lets percolation label components with flat arrays
// and lets the rng package flip one deterministic coin per canonical edge
// ID.
package graph

import "fmt"

// Vertex identifies a vertex of an implicit graph. Every graph in this
// package uses the dense vertex set {0, 1, ..., Order()-1}.
type Vertex uint64

// Graph is a finite, undirected, simple graph with computable adjacency.
//
// Implementations must satisfy, for all vertices u, v < Order():
//
//   - symmetry: u appears in v's neighbor list iff v appears in u's;
//   - canonical IDs: EdgeID(u, v) == EdgeID(v, u), and distinct edges
//     have distinct IDs;
//   - simplicity: no self-loops and no repeated neighbors.
//
// These invariants are what the percolation layer relies on to flip
// exactly one coin per edge; they are checked for every topology by the
// shared property tests in invariants_test.go.
type Graph interface {
	// Order returns the number of vertices. Vertices are 0..Order()-1.
	Order() uint64

	// Degree returns the number of neighbors of v.
	Degree(v Vertex) int

	// Neighbor returns the i-th neighbor of v, for 0 <= i < Degree(v).
	// The ordering is arbitrary but fixed for a given graph value.
	Neighbor(v Vertex, i int) Vertex

	// EdgeID returns a canonical identifier for the undirected edge
	// {u, v}, or ok=false if {u, v} is not an edge. IDs are unique per
	// edge within one graph and symmetric in the endpoints.
	EdgeID(u, v Vertex) (id uint64, ok bool)

	// Name returns a short human-readable description, e.g. "H_12".
	Name() string
}

// EdgeSpace is implemented by graphs that bound their edge IDs: every
// ID EdgeID returns is below EdgeIDBound(). The probe layer sizes its
// edge memo by the bound, so a bound near the edge count keeps that
// memo a flat table a few bits per edge wide. Every family in this
// package implements it; the shared property tests check the bound on
// every edge.
type EdgeSpace interface {
	// EdgeIDBound returns an exclusive upper bound on the graph's edge
	// IDs.
	EdgeIDBound() uint64
}

// Metric is implemented by graphs with a closed-form shortest-path
// distance (in the un-percolated graph).
type Metric interface {
	// Dist returns the graph distance between u and v.
	Dist(u, v Vertex) int
}

// Underlay is implemented by graphs embedded in a lattice whose
// geometric distance the greedy routers can steer by even though it is
// NOT the true shortest-path metric of the graph: small-world families
// add long-range contacts that shorten real distances below the lattice
// distance, so they must not implement Metric (which promises exact
// distances), but greedy navigation in the sense of Kleinberg is defined
// precisely in terms of the underlay geometry.
type Underlay interface {
	// UnderlayDist returns the lattice (underlay) distance between u and
	// v — an upper bound on the true graph distance.
	UnderlayDist(u, v Vertex) int
}

// underlayMetric adapts an Underlay to the Metric shape so routers can
// hold one distance interface regardless of which the graph implements.
type underlayMetric struct{ u Underlay }

func (m underlayMetric) Dist(a, b Vertex) int { return m.u.UnderlayDist(a, b) }

// DistanceOf returns the distance function geometric routers steer by:
// the exact base-graph metric when g implements Metric, else the lattice
// underlay distance when g implements Underlay. ok is false when g has
// neither.
func DistanceOf(g Graph) (Metric, bool) {
	if m, ok := g.(Metric); ok {
		return m, true
	}
	if u, ok := g.(Underlay); ok {
		return underlayMetric{u}, true
	}
	return nil, false
}

// PathMaker is implemented by graphs that can produce a canonical
// shortest path between two vertices of the base (un-percolated) graph.
// The waypoint-following routers of the paper (Theorem 3(ii) for the
// hypercube, Theorem 4 for the mesh) are built on this.
type PathMaker interface {
	// ShortestPath returns a shortest path from u to v in the base
	// graph, inclusive of both endpoints.
	ShortestPath(u, v Vertex) []Vertex
}

// Neighbors appends all neighbors of v to buf and returns the extended
// slice. Pass a reused buffer to avoid allocation in hot loops.
func Neighbors(g Graph, v Vertex, buf []Vertex) []Vertex {
	d := g.Degree(v)
	for i := 0; i < d; i++ {
		buf = append(buf, g.Neighbor(v, i))
	}
	return buf
}

// IsEdge reports whether {u, v} is an edge of g.
func IsEdge(g Graph, u, v Vertex) bool {
	_, ok := g.EdgeID(u, v)
	return ok
}

// NumEdges counts the edges of g by enumeration. It is linear in the
// graph size; intended for finite instances and tests.
func NumEdges(g Graph) uint64 {
	var m uint64
	ForEachEdge(g, func(u, v Vertex, id uint64) bool {
		m++
		return true
	})
	return m
}

// ForEachEdge visits every undirected edge exactly once, in increasing
// order of the smaller endpoint. The visit function receives both
// endpoints (u < v) and the canonical edge ID; returning false stops the
// enumeration early.
func ForEachEdge(g Graph, visit func(u, v Vertex, id uint64) bool) {
	n := g.Order()
	for u := Vertex(0); uint64(u) < n; u++ {
		d := g.Degree(u)
		for i := 0; i < d; i++ {
			v := g.Neighbor(u, i)
			if u >= v {
				continue // visit each edge from its smaller endpoint
			}
			id, ok := g.EdgeID(u, v)
			if !ok {
				// Adjacency and EdgeID disagree: an implementation bug
				// that must never be silently skipped.
				panic(fmt.Sprintf("graph %s: Neighbor lists edge {%d,%d} but EdgeID rejects it", g.Name(), u, v))
			}
			if !visit(u, v, id) {
				return
			}
		}
	}
}

// pairID canonically encodes the unordered pair {u, v} of a graph with
// `order` vertices as min*order + max. It is unique across pairs provided
// order^2 fits in a uint64, which holds for every finite instance this
// package constructs (the hypercube overrides EdgeID with a tighter
// encoding to support larger dimensions).
func pairID(order uint64, u, v Vertex) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)*order + uint64(v)
}

// BFSDist computes the shortest-path distance between u and v in the
// base graph by breadth-first search. It is exponential-size-unfriendly
// and exists for small graphs and for cross-checking Metric
// implementations in tests. It returns -1 if v is unreachable from u.
func BFSDist(g Graph, u, v Vertex) int {
	if u == v {
		return 0
	}
	dist := map[Vertex]int{u: 0}
	queue := []Vertex{u}
	var buf []Vertex
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		buf = Neighbors(g, x, buf[:0])
		for _, y := range buf {
			if _, seen := dist[y]; seen {
				continue
			}
			dist[y] = dist[x] + 1
			if y == v {
				return dist[y]
			}
			queue = append(queue, y)
		}
	}
	return -1
}

// Diameter returns the exact diameter of g by running a BFS from every
// vertex. Quadratic; tests and tiny instances only. Disconnected graphs
// return -1.
func Diameter(g Graph) int {
	n := g.Order()
	diam := 0
	var buf []Vertex
	dist := make([]int, n)
	for s := Vertex(0); uint64(s) < n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue := []Vertex{s}
		reached := 1
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			buf = Neighbors(g, x, buf[:0])
			for _, y := range buf {
				if dist[y] >= 0 {
					continue
				}
				dist[y] = dist[x] + 1
				reached++
				if dist[y] > diam {
					diam = dist[y]
				}
				queue = append(queue, y)
			}
		}
		if uint64(reached) != n {
			return -1
		}
	}
	return diam
}
