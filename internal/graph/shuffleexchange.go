package graph

// ShuffleExchange is the binary shuffle-exchange graph on 2^n vertices:
// x is adjacent to x^1 (exchange) and to its cyclic rotations by one bit
// in either direction (shuffle / unshuffle), self-loops removed. Like the
// de Bruijn graph it is a constant-degree, logarithmic-diameter network
// named in Section 6's open question.
type ShuffleExchange struct {
	small
	n int
}

// NewShuffleExchange returns the shuffle-exchange graph of order 2^n,
// n in [2, 20].
func NewShuffleExchange(n int) (*ShuffleExchange, error) {
	if n < 2 || n > 20 {
		return nil, errRange("shuffle-exchange", n, 2, 20)
	}
	order := uint64(1) << uint(n)
	mask := order - 1
	rotl := func(x uint64) uint64 { return (x<<1 | x>>(uint(n)-1)) & mask }
	rotr := func(x uint64) uint64 { return (x>>1 | (x&1)<<(uint(n)-1)) & mask }
	g := &ShuffleExchange{n: n}
	g.small.init(order, func(v Vertex, buf []Vertex) []Vertex {
		x := uint64(v)
		return append(buf, Vertex(x^1), Vertex(rotl(x)), Vertex(rotr(x)))
	})
	return g, nil
}

// MustShuffleExchange is NewShuffleExchange that panics on error.
func MustShuffleExchange(n int) *ShuffleExchange {
	g, err := NewShuffleExchange(n)
	if err != nil {
		panic(err)
	}
	return g
}

// Bits returns n (order is 2^n).
func (g *ShuffleExchange) Bits() int { return g.n }

// Name implements Graph.
func (g *ShuffleExchange) Name() string { return namef("SE_%d", g.n) }

// Butterfly is the n-dimensional (wrapped = false) butterfly: vertices
// are pairs (level, row) with level in [0, n] and row in [0, 2^n); vertex
// (l, r) connects to (l+1, r) (straight edge) and (l+1, r ^ 2^l) (cross
// edge). Butterflies are the substrate of the faulty-network emulation
// results of Cole-Maggs-Sitaraman and Karlin-Nelson-Tamaki cited in the
// paper's related work, and another Section 6 candidate family.
type Butterfly struct {
	small
	n int
}

// NewButterfly returns the butterfly with n levels of edges ((n+1)*2^n
// vertices), n in [1, 16].
func NewButterfly(n int) (*Butterfly, error) {
	if n < 1 || n > 16 {
		return nil, errRange("butterfly", n, 1, 16)
	}
	rows := uint64(1) << uint(n)
	order := (uint64(n) + 1) * rows
	g := &Butterfly{n: n}
	g.small.init(order, func(v Vertex, buf []Vertex) []Vertex {
		l := uint64(v) / rows
		r := uint64(v) % rows
		if l < uint64(n) {
			buf = append(buf,
				Vertex((l+1)*rows+r),          // straight down
				Vertex((l+1)*rows+(r^(1<<l)))) // cross down
		}
		if l > 0 {
			buf = append(buf,
				Vertex((l-1)*rows+r),              // straight up
				Vertex((l-1)*rows+(r^(1<<(l-1))))) // cross up
		}
		return buf
	})
	return g, nil
}

// MustButterfly is NewButterfly that panics on error.
func MustButterfly(n int) *Butterfly {
	g, err := NewButterfly(n)
	if err != nil {
		panic(err)
	}
	return g
}

// Levels returns n, the number of edge levels.
func (g *Butterfly) Levels() int { return g.n }

// Rows returns 2^n.
func (g *Butterfly) Rows() uint64 { return 1 << uint(g.n) }

// VertexAt returns the vertex at (level, row).
func (g *Butterfly) VertexAt(level int, row uint64) (Vertex, bool) {
	if level < 0 || level > g.n || row >= g.Rows() {
		return 0, false
	}
	return Vertex(uint64(level)*g.Rows() + row), true
}

// LevelRow decodes a vertex into its (level, row) pair.
func (g *Butterfly) LevelRow(v Vertex) (level int, row uint64) {
	return int(uint64(v) / g.Rows()), uint64(v) % g.Rows()
}

// Name implements Graph.
func (g *Butterfly) Name() string { return namef("BF_%d", g.n) }
