package graph

import (
	"fmt"
	"sort"
)

// small is a shared base for the constant-degree "open question" families
// (de Bruijn, shuffle-exchange, butterfly, cycle+matching). Their
// adjacency rules can produce self-loops and parallel edges, so small
// materializes a cleaned, symmetrized, sorted adjacency list once at
// construction. These graphs are only instantiated at sizes where that is
// cheap (<= 2^20 vertices).
type small struct {
	order uint64
	adj   [][]Vertex
}

// init builds the adjacency from a raw candidate-neighbor generator:
// self-loops and duplicates are dropped, the relation is symmetrized, and
// each list is sorted for deterministic enumeration.
func (s *small) init(order uint64, raw func(Vertex) []Vertex) {
	s.order = order
	s.adj = make([][]Vertex, order)
	for v := Vertex(0); uint64(v) < order; v++ {
		for _, w := range raw(v) {
			if w == v || uint64(w) >= order {
				continue
			}
			s.adj[v] = append(s.adj[v], w)
		}
	}
	// Symmetrize: adjacency generators are symmetric for all families in
	// this package, but enforcing it here makes that a guarantee rather
	// than a convention.
	for v := Vertex(0); uint64(v) < order; v++ {
		for _, w := range s.adj[v] {
			if !containsVertex(s.adj[w], v) {
				s.adj[w] = append(s.adj[w], v)
			}
		}
	}
	for v := range s.adj {
		lst := s.adj[v]
		sort.Slice(lst, func(i, j int) bool { return lst[i] < lst[j] })
		s.adj[v] = dedupSorted(lst)
	}
}

func containsVertex(xs []Vertex, v Vertex) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func dedupSorted(xs []Vertex) []Vertex {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// Order implements Graph.
func (s *small) Order() uint64 { return s.order }

// Degree implements Graph.
func (s *small) Degree(v Vertex) int { return len(s.adj[v]) }

// Neighbor implements Graph.
func (s *small) Neighbor(v Vertex, i int) Vertex { return s.adj[v][i] }

// EdgeID implements Graph using the canonical pair encoding.
func (s *small) EdgeID(u, v Vertex) (uint64, bool) {
	if uint64(u) >= s.order || uint64(v) >= s.order || u == v {
		return 0, false
	}
	// Adjacency lists are sorted; binary search keeps EdgeID O(log deg).
	lst := s.adj[u]
	i := sort.Search(len(lst), func(i int) bool { return lst[i] >= v })
	if i == len(lst) || lst[i] != v {
		return 0, false
	}
	return pairID(s.order, u, v), true
}

// EdgeIDBound implements EdgeSpace: pair IDs are below order^2.
func (s *small) EdgeIDBound() uint64 { return s.order * s.order }

func errRange(family string, n, lo, hi int) error {
	return fmt.Errorf("graph: %s parameter %d out of range [%d, %d]", family, n, lo, hi)
}

func namef(format string, args ...interface{}) string {
	return fmt.Sprintf(format, args...)
}
