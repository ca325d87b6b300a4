package graph

import (
	"fmt"
	"slices"
)

// small is a shared base for the constant-degree "open question" families
// (de Bruijn, shuffle-exchange, butterfly, cycle+matching). Their
// adjacency rules can produce self-loops and parallel edges, so small
// materializes a cleaned, symmetrized, sorted adjacency once at
// construction, in compressed sparse row form: vertex v's neighbors are
// adj[off[v]:off[v+1]]. These graphs are only instantiated at sizes where
// that is cheap (<= 2^24 vertices).
type small struct {
	order uint64
	off   []int
	adj   []Vertex
}

// init builds the adjacency from a raw candidate-neighbor generator,
// which appends v's candidates to buf and returns it: self-loops and
// duplicates are dropped, the relation is symmetrized (an adjacency
// generator is symmetric for every family in this package, but
// enforcing it here makes that a guarantee rather than a convention),
// and each list is sorted for deterministic enumeration.
func (s *small) init(order uint64, raw func(v Vertex, buf []Vertex) []Vertex) {
	var buf []Vertex
	// each calls visit(v, w) for every candidate edge, in generator
	// order.
	each := func(visit func(v, w Vertex)) {
		for v := Vertex(0); uint64(v) < order; v++ {
			buf = raw(v, buf[:0])
			for _, w := range buf {
				if w != v && uint64(w) < order {
					visit(v, w)
				}
			}
		}
	}
	// Count every candidate edge at both ends, then place it at both:
	// each row then holds the symmetric closure, duplicates included.
	off := make([]int, order+1)
	each(func(v, w Vertex) { off[v+1]++; off[w+1]++ })
	for v := uint64(1); v <= order; v++ {
		off[v] += off[v-1]
	}
	adj := make([]Vertex, off[order])
	next := slices.Clone(off[:order])
	each(func(v, w Vertex) {
		adj[next[v]] = w
		next[v]++
		adj[next[w]] = v
		next[w]++
	})
	// Sort each row and drop its duplicates, compacting the rows in
	// place: the write index never passes the read index.
	n := 0
	for v := uint64(0); v < order; v++ {
		row := adj[off[v]:off[v+1]]
		slices.Sort(row)
		off[v] = n
		for i, w := range row {
			if i == 0 || w != row[i-1] {
				adj[n] = w
				n++
			}
		}
	}
	off[order] = n
	// The clone keeps only the deduplicated rows.
	s.order, s.off, s.adj = order, off, slices.Clone(adj[:n])
}

// Order implements Graph.
func (s *small) Order() uint64 { return s.order }

// Degree implements Graph.
func (s *small) Degree(v Vertex) int { return s.off[v+1] - s.off[v] }

// Neighbor implements Graph.
func (s *small) Neighbor(v Vertex, i int) Vertex { return s.adj[s.off[v]+i] }

// EdgeID implements Graph using the canonical pair encoding.
func (s *small) EdgeID(u, v Vertex) (uint64, bool) {
	if uint64(u) >= s.order || uint64(v) >= s.order || u == v {
		return 0, false
	}
	// Rows are sorted; binary search keeps EdgeID O(log deg).
	if _, ok := slices.BinarySearch(s.adj[s.off[u]:s.off[u+1]], v); !ok {
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
