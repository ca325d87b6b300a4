package graph

// DeBruijn is the undirected binary de Bruijn graph on 2^n vertices:
// x is adjacent to its left shifts (2x mod 2^n, 2x+1 mod 2^n) and right
// shifts (x>>1, x>>1 | 2^{n-1}), with self-loops and parallel edges
// removed. It has constant degree (at most 4) and logarithmic diameter,
// making it one of the Section 6 candidate families for which the
// percolation and routing transitions might coincide.
type DeBruijn struct {
	small
	n int
}

// NewDeBruijn returns the binary de Bruijn graph of order 2^n, n in
// [2, 24] (materialized adjacency).
func NewDeBruijn(n int) (*DeBruijn, error) {
	if n < 2 || n > 24 {
		return nil, errRange("de Bruijn", n, 2, 24)
	}
	order := uint64(1) << uint(n)
	mask := order - 1
	g := &DeBruijn{n: n}
	g.small.init(order, func(v Vertex, buf []Vertex) []Vertex {
		x := uint64(v)
		return append(buf,
			Vertex((x<<1)&mask),
			Vertex((x<<1|1)&mask),
			Vertex(x>>1),
			Vertex(x>>1|order>>1),
		)
	})
	return g, nil
}

// MustDeBruijn is NewDeBruijn that panics on error.
func MustDeBruijn(n int) *DeBruijn {
	g, err := NewDeBruijn(n)
	if err != nil {
		panic(err)
	}
	return g
}

// Bits returns n, the word length (order is 2^n).
func (g *DeBruijn) Bits() int { return g.n }

// Name implements Graph.
func (g *DeBruijn) Name() string { return namef("DB_%d", g.n) }
