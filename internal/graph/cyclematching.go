package graph

import (
	"fmt"

	"faultroute/internal/rng"
)

// CycleMatching is a cycle on n vertices plus a uniformly random perfect
// matching on the same vertex set (chords), a.k.a. the Bollobas-Chung
// graph. The paper's introduction cites it as the original example of the
// existence/findability gap: its diameter is O(log n) but local routing
// needs ~ sqrt(n) probes even without faults. It is degree-3 and serves
// as another Section 6 family.
type CycleMatching struct {
	small
	n    int
	seed uint64
}

// NewCycleMatching returns the cycle-plus-random-matching graph on n
// vertices (n even, in [4, 1<<20]); the matching is drawn deterministically
// from seed. A matched pair that duplicates a cycle edge is kept as a
// single edge (the graph stays simple), matching the usual convention.
func NewCycleMatching(n int, seed uint64) (*CycleMatching, error) {
	if n < 4 || n > 1<<20 {
		return nil, errRange("cycle+matching", n, 4, 1<<20)
	}
	if n%2 != 0 {
		return nil, fmt.Errorf("graph: cycle+matching needs even order, got %d", n)
	}
	// Draw a uniform perfect matching: shuffle, pair consecutive entries.
	s := rng.NewStream(rng.Combine(seed, 0x9a7c_15f3))
	perm := s.Perm(n)
	partner := make([]Vertex, n)
	for i := 0; i < n; i += 2 {
		a, b := Vertex(perm[i]), Vertex(perm[i+1])
		partner[a], partner[b] = b, a
	}
	g := &CycleMatching{n: n, seed: seed}
	g.small.init(uint64(n), func(v Vertex, buf []Vertex) []Vertex {
		next := Vertex((uint64(v) + 1) % uint64(n))
		prev := Vertex((uint64(v) + uint64(n) - 1) % uint64(n))
		return append(buf, prev, next, partner[v])
	})
	return g, nil
}

// MustCycleMatching is NewCycleMatching that panics on error.
func MustCycleMatching(n int, seed uint64) *CycleMatching {
	g, err := NewCycleMatching(n, seed)
	if err != nil {
		panic(err)
	}
	return g
}

// Seed returns the matching seed.
func (g *CycleMatching) Seed() uint64 { return g.seed }

// Name implements Graph.
func (g *CycleMatching) Name() string { return namef("CM_%d", g.n) }

// Ring is the cycle C_n; the simplest Metric topology, used mostly in
// tests and as a degenerate routing baseline (d=1 "mesh" with
// wrap-around).
type Ring struct {
	n uint64
}

// NewRing returns the cycle on n >= 3 vertices.
func NewRing(n int) (*Ring, error) {
	if n < 3 {
		return nil, errRange("ring", n, 3, 1<<62)
	}
	return &Ring{n: uint64(n)}, nil
}

// MustRing is NewRing that panics on error.
func MustRing(n int) *Ring {
	g, err := NewRing(n)
	if err != nil {
		panic(err)
	}
	return g
}

// Order implements Graph.
func (g *Ring) Order() uint64 { return g.n }

// Degree implements Graph.
func (g *Ring) Degree(v Vertex) int { return 2 }

// Neighbor enumerates predecessor then successor.
func (g *Ring) Neighbor(v Vertex, i int) Vertex {
	if i == 0 {
		return Vertex((uint64(v) + g.n - 1) % g.n)
	}
	return Vertex((uint64(v) + 1) % g.n)
}

// EdgeID encodes the cycle edge by its clockwise-first endpoint: the edge
// {k, k+1 mod n} has ID k.
func (g *Ring) EdgeID(u, v Vertex) (uint64, bool) {
	a, b := uint64(u), uint64(v)
	switch {
	case (a+1)%g.n == b:
		return a, true
	case (b+1)%g.n == a:
		return b, true
	default:
		return 0, false
	}
}

// EdgeIDBound implements EdgeSpace: edge {k, k+1 mod n} has ID k < n.
func (g *Ring) EdgeIDBound() uint64 { return g.n }

// Dist returns the cyclic distance.
func (g *Ring) Dist(u, v Vertex) int {
	a, b := uint64(u), uint64(v)
	if a > b {
		a, b = b, a
	}
	d := b - a
	if w := g.n - d; w < d {
		d = w
	}
	return int(d)
}

// ShortestPath walks the shorter arc (ties clockwise).
func (g *Ring) ShortestPath(u, v Vertex) []Vertex {
	path := []Vertex{u}
	cur := uint64(u)
	fwd := (uint64(v) + g.n - cur) % g.n
	back := g.n - fwd
	step := uint64(1)
	count := fwd
	if fwd > back {
		step = g.n - 1 // -1 mod n
		count = back
	}
	for k := uint64(0); k < count; k++ {
		cur = (cur + step) % g.n
		path = append(path, Vertex(cur))
	}
	return path
}

// Name implements Graph.
func (g *Ring) Name() string { return namef("C_%d", g.n) }
