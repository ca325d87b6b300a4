package graph

import "fmt"

// Complete is the complete graph K_n. Percolating K_n with p = c/n yields
// the Erdos-Renyi random graph G(n, p) of Section 5, where the paper
// proves local routing costs Ω(n^2) probes (Theorem 10) while oracle
// routing costs Θ(n^{3/2}) (Theorem 11).
type Complete struct {
	n uint64
}

// NewComplete returns K_n. n must be at least 2 and small enough that
// n^2 fits in a uint64 (n <= 2^32 - 1), which bounds the pair encoding.
func NewComplete(n int) (*Complete, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: complete graph order %d < 2", n)
	}
	if uint64(n) >= 1<<32 {
		return nil, fmt.Errorf("graph: complete graph order %d too large", n)
	}
	return &Complete{n: uint64(n)}, nil
}

// MustComplete is NewComplete that panics on error.
func MustComplete(n int) *Complete {
	g, err := NewComplete(n)
	if err != nil {
		panic(err)
	}
	return g
}

// Order returns n.
func (g *Complete) Order() uint64 { return g.n }

// Degree returns n-1.
func (g *Complete) Degree(v Vertex) int { return int(g.n) - 1 }

// Neighbor enumerates all vertices except v in increasing order.
func (g *Complete) Neighbor(v Vertex, i int) Vertex {
	if uint64(i) < uint64(v) {
		return Vertex(i)
	}
	return Vertex(i + 1)
}

// EdgeID uses the canonical pair encoding min*n + max.
func (g *Complete) EdgeID(u, v Vertex) (uint64, bool) {
	if u == v || uint64(u) >= g.n || uint64(v) >= g.n {
		return 0, false
	}
	return pairID(g.n, u, v), true
}

// EdgeIDBound implements EdgeSpace: pair IDs are below n^2.
func (g *Complete) EdgeIDBound() uint64 { return g.n * g.n }

// Dist is 1 for distinct vertices.
func (g *Complete) Dist(u, v Vertex) int {
	if u == v {
		return 0
	}
	return 1
}

// Name implements Graph.
func (g *Complete) Name() string { return fmt.Sprintf("K_%d", g.n) }
