package graph

import "fmt"

// Mesh is the d-dimensional mesh M^d with side length M: vertices are
// points of {0,...,M-1}^d with an edge between points differing by one in
// exactly one coordinate (no wrap-around). Theorem 4 shows local routing
// in M^d_p costs O(n) probes between vertices at distance n, for every p
// above the percolation threshold p_c(d).
type Mesh struct {
	d     int
	side  uint64
	order uint64
}

// NewMesh returns the d-dimensional mesh with the given side length.
// The total vertex count side^d must fit comfortably in a uint64 (and,
// for EdgeID, its square times d must too); we cap side^d at 2^40 which
// is far beyond anything the experiments materialize.
func NewMesh(d int, side int) (*Mesh, error) {
	if d < 1 {
		return nil, fmt.Errorf("graph: mesh dimension %d < 1", d)
	}
	if side < 2 {
		return nil, fmt.Errorf("graph: mesh side %d < 2", side)
	}
	order := uint64(1)
	for i := 0; i < d; i++ {
		next := order * uint64(side)
		if next/uint64(side) != order || next > 1<<40 {
			return nil, fmt.Errorf("graph: mesh %d^%d too large", side, d)
		}
		order = next
	}
	return &Mesh{d: d, side: uint64(side), order: order}, nil
}

// MustMesh is NewMesh that panics on error; for tests and examples.
func MustMesh(d, side int) *Mesh {
	g, err := NewMesh(d, side)
	if err != nil {
		panic(err)
	}
	return g
}

// Dim returns the dimension d.
func (g *Mesh) Dim() int { return g.d }

// Side returns the side length M.
func (g *Mesh) Side() int { return int(g.side) }

// Order returns M^d.
func (g *Mesh) Order() uint64 { return g.order }

// Coords decodes a vertex into its d coordinates (least-significant
// axis first).
func (g *Mesh) Coords(v Vertex) []int {
	c := make([]int, g.d)
	x := uint64(v)
	for i := 0; i < g.d; i++ {
		c[i] = int(x % g.side)
		x /= g.side
	}
	return c
}

// VertexAt encodes coordinates into a vertex. Coordinates out of range
// return an error.
func (g *Mesh) VertexAt(coords ...int) (Vertex, error) {
	if len(coords) != g.d {
		return 0, fmt.Errorf("graph: mesh wants %d coordinates, got %d", g.d, len(coords))
	}
	var v uint64
	for i := g.d - 1; i >= 0; i-- {
		c := coords[i]
		if c < 0 || uint64(c) >= g.side {
			return 0, fmt.Errorf("graph: mesh coordinate %d = %d out of [0, %d)", i, c, g.side)
		}
		v = v*g.side + uint64(c)
	}
	return Vertex(v), nil
}

// coord returns the single coordinate along axis a.
func (g *Mesh) coord(v Vertex, a int) uint64 {
	x := uint64(v)
	for i := 0; i < a; i++ {
		x /= g.side
	}
	return x % g.side
}

// stride returns side^a, the vertex-index step along axis a.
func (g *Mesh) stride(a int) uint64 {
	s := uint64(1)
	for i := 0; i < a; i++ {
		s *= g.side
	}
	return s
}

// Degree returns the number of in-range axis moves from v: 2d in the
// interior, fewer on faces, edges and corners.
func (g *Mesh) Degree(v Vertex) int {
	deg := 0
	x := uint64(v)
	for i := 0; i < g.d; i++ {
		c := x % g.side
		x /= g.side
		if c > 0 {
			deg++
		}
		if c < g.side-1 {
			deg++
		}
	}
	return deg
}

// Neighbor returns the i-th neighbor of v, enumerating axes in order and,
// within an axis, the -1 move before the +1 move (skipping out-of-range
// moves).
func (g *Mesh) Neighbor(v Vertex, i int) Vertex {
	x := uint64(v)
	stride := uint64(1)
	for a := 0; a < g.d; a++ {
		c := x % g.side
		x /= g.side
		if c > 0 {
			if i == 0 {
				return v - Vertex(stride)
			}
			i--
		}
		if c < g.side-1 {
			if i == 0 {
				return v + Vertex(stride)
			}
			i--
		}
		stride *= g.side
	}
	panic(fmt.Sprintf("graph: mesh neighbor index out of range for vertex %d", v))
}

// EdgeID canonically encodes an axis-a edge as a*order + lower-endpoint.
func (g *Mesh) EdgeID(u, v Vertex) (uint64, bool) {
	if u == v {
		return 0, false
	}
	lo, hi := u, v
	if lo > hi {
		lo, hi = hi, lo
	}
	diff := uint64(hi - lo)
	// diff must be exactly one stride, and lo's coordinate on that axis
	// must not be the last one (no wrap in a mesh).
	stride := uint64(1)
	for a := 0; a < g.d; a++ {
		if diff == stride {
			if g.coord(lo, a) == g.side-1 {
				return 0, false
			}
			// Differing by one stride is only an axis move if all lower
			// coordinates agree, which diff==stride already implies.
			return uint64(a)*g.order + uint64(lo), true
		}
		stride *= g.side
	}
	return 0, false
}

// EdgeIDBound implements EdgeSpace: IDs are axis*order + vertex, below
// d*order.
func (g *Mesh) EdgeIDBound() uint64 { return uint64(g.d) * g.order }

// Dist returns the L1 (Manhattan) distance between u and v.
func (g *Mesh) Dist(u, v Vertex) int {
	du, dv := uint64(u), uint64(v)
	total := 0
	for i := 0; i < g.d; i++ {
		cu, cv := du%g.side, dv%g.side
		du /= g.side
		dv /= g.side
		if cu > cv {
			total += int(cu - cv)
		} else {
			total += int(cv - cu)
		}
	}
	return total
}

// ShortestPath returns the canonical monotone L1 path that fixes axes in
// increasing order. This is the waypoint sequence of the Theorem 4
// routing algorithm.
func (g *Mesh) ShortestPath(u, v Vertex) []Vertex {
	path := make([]Vertex, 0, g.Dist(u, v)+1)
	path = append(path, u)
	cur := u
	for a := 0; a < g.d; a++ {
		stride := Vertex(g.stride(a))
		cc, tc := g.coord(cur, a), g.coord(v, a)
		for cc < tc {
			cur += stride
			cc++
			path = append(path, cur)
		}
		for cc > tc {
			cur -= stride
			cc--
			path = append(path, cur)
		}
	}
	return path
}

// Name implements Graph.
func (g *Mesh) Name() string { return fmt.Sprintf("M^%d(%d)", g.d, g.side) }
