package graph

import (
	"fmt"
	"math/bits"
)

// Hypercube is the n-dimensional Boolean hypercube H_n: vertices are the
// 2^n bit strings of length n, with an edge between strings differing in
// exactly one coordinate. It is the central object of the paper: Theorem 3
// locates the routing-complexity phase transition of H_{n,p} at p = n^{-1/2},
// strictly above the giant-component threshold p ~ 1/n of Ajtai-Komlos-
// Szemeredi.
type Hypercube struct {
	n int
}

// NewHypercube returns the n-dimensional hypercube. Dimension must be in
// [1, 57]: 57 keeps every canonical edge ID (vertex*n + dim) inside a
// uint64.
func NewHypercube(n int) (*Hypercube, error) {
	if n < 1 || n > 57 {
		return nil, fmt.Errorf("graph: hypercube dimension %d out of range [1, 57]", n)
	}
	return &Hypercube{n: n}, nil
}

// MustHypercube is NewHypercube for statically valid dimensions; it panics
// on error. Intended for tests and examples.
func MustHypercube(n int) *Hypercube {
	g, err := NewHypercube(n)
	if err != nil {
		panic(err)
	}
	return g
}

// Dim returns the dimension n.
func (g *Hypercube) Dim() int { return g.n }

// Order returns 2^n.
func (g *Hypercube) Order() uint64 { return 1 << uint(g.n) }

// Degree returns n for every vertex.
func (g *Hypercube) Degree(v Vertex) int { return g.n }

// Neighbor returns v with bit i flipped.
func (g *Hypercube) Neighbor(v Vertex, i int) Vertex {
	return v ^ (1 << uint(i))
}

// EdgeID canonically encodes the edge {u, v} as min(u,v)*n + dim, where
// dim is the flipped coordinate. This supports dimensions beyond the
// generic pair encoding (order^2 would overflow at n >= 32).
func (g *Hypercube) EdgeID(u, v Vertex) (uint64, bool) {
	d := u ^ v
	if d == 0 || d&(d-1) != 0 {
		return 0, false // zero or more than one differing bit
	}
	dim := uint64(bits.TrailingZeros64(uint64(d)))
	if dim >= uint64(g.n) {
		return 0, false
	}
	lo := u
	if v < u {
		lo = v
	}
	return uint64(lo)*uint64(g.n) + dim, true
}

// EdgeIDBound implements EdgeSpace: IDs are min(u,v)*n + dim < n*2^n.
func (g *Hypercube) EdgeIDBound() uint64 { return uint64(g.n) << uint(g.n) }

// Dist returns the Hamming distance between u and v.
func (g *Hypercube) Dist(u, v Vertex) int {
	return bits.OnesCount64(uint64(u ^ v))
}

// ShortestPath returns the canonical monotone shortest path from u to v
// that fixes differing coordinates from the lowest to the highest bit.
// This is the waypoint sequence used by the Theorem 3(ii) router.
func (g *Hypercube) ShortestPath(u, v Vertex) []Vertex {
	path := make([]Vertex, 0, g.Dist(u, v)+1)
	path = append(path, u)
	cur := u
	diff := uint64(cur ^ v)
	for diff != 0 {
		bit := uint(bits.TrailingZeros64(diff))
		cur ^= 1 << bit
		diff &^= 1 << bit
		path = append(path, cur)
	}
	return path
}

// Antipode returns the vertex at maximal distance n from v (all bits
// flipped), the canonical "hard pair" for routing experiments.
func (g *Hypercube) Antipode(v Vertex) Vertex {
	return v ^ Vertex(g.Order()-1)
}

// Name implements Graph.
func (g *Hypercube) Name() string { return fmt.Sprintf("H_%d", g.n) }
