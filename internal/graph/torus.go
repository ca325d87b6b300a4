package graph

import "fmt"

// Torus is the d-dimensional torus: the mesh with wrap-around edges, so
// every vertex has degree exactly 2d (side > 2). It removes the boundary
// effects of the mesh and is used to cross-check the Theorem 4
// experiments (the theorem concerns the mesh; on the torus the same
// router behaves identically away from boundaries).
type Torus struct {
	d     int
	side  uint64
	order uint64
}

// NewTorus returns the d-dimensional torus with the given side length.
// Side must be at least 3: side 2 would duplicate edges (+1 and -1 wrap
// to the same neighbor), violating simplicity.
func NewTorus(d int, side int) (*Torus, error) {
	if d < 1 {
		return nil, fmt.Errorf("graph: torus dimension %d < 1", d)
	}
	if side < 3 {
		return nil, fmt.Errorf("graph: torus side %d < 3", side)
	}
	order := uint64(1)
	for i := 0; i < d; i++ {
		next := order * uint64(side)
		if next/uint64(side) != order || next > 1<<40 {
			return nil, fmt.Errorf("graph: torus %d^%d too large", side, d)
		}
		order = next
	}
	return &Torus{d: d, side: uint64(side), order: order}, nil
}

// MustTorus is NewTorus that panics on error; for tests and examples.
func MustTorus(d, side int) *Torus {
	g, err := NewTorus(d, side)
	if err != nil {
		panic(err)
	}
	return g
}

// Dim returns the dimension d.
func (g *Torus) Dim() int { return g.d }

// Side returns the side length M.
func (g *Torus) Side() int { return int(g.side) }

// Order returns M^d.
func (g *Torus) Order() uint64 { return g.order }

// Degree returns 2d for every vertex.
func (g *Torus) Degree(v Vertex) int { return 2 * g.d }

// coord returns the coordinate of v along axis a.
func (g *Torus) coord(v Vertex, a int) uint64 {
	x := uint64(v)
	for i := 0; i < a; i++ {
		x /= g.side
	}
	return x % g.side
}

// stride returns side^a.
func (g *Torus) stride(a int) uint64 {
	s := uint64(1)
	for i := 0; i < a; i++ {
		s *= g.side
	}
	return s
}

// Neighbor enumerates, per axis, the -1 neighbor then the +1 neighbor
// (with wrap-around).
func (g *Torus) Neighbor(v Vertex, i int) Vertex {
	a := i / 2
	if a >= g.d {
		panic(fmt.Sprintf("graph: torus neighbor index %d out of range", i))
	}
	stride := g.stride(a)
	c := g.coord(v, a)
	if i%2 == 0 { // -1 direction
		if c == 0 {
			return v + Vertex((g.side-1)*stride)
		}
		return v - Vertex(stride)
	}
	// +1 direction
	if c == g.side-1 {
		return v - Vertex((g.side-1)*stride)
	}
	return v + Vertex(stride)
}

// EdgeID encodes an axis-a edge as a*order + w, where w is the endpoint
// whose coordinate c satisfies (c+1) mod side == other's coordinate
// (the "left" end of the edge in the cyclic order).
func (g *Torus) EdgeID(u, v Vertex) (uint64, bool) {
	if u == v {
		return 0, false
	}
	// Find the axis on which they differ; all others must agree.
	du, dv := uint64(u), uint64(v)
	axis := -1
	var cu, cv uint64
	for a := 0; a < g.d; a++ {
		xu, xv := du%g.side, dv%g.side
		du /= g.side
		dv /= g.side
		if xu != xv {
			if axis != -1 {
				return 0, false // differ on two axes
			}
			axis, cu, cv = a, xu, xv
		}
	}
	if axis == -1 {
		return 0, false
	}
	switch {
	case (cu+1)%g.side == cv:
		return uint64(axis)*g.order + uint64(u), true
	case (cv+1)%g.side == cu:
		return uint64(axis)*g.order + uint64(v), true
	default:
		return 0, false
	}
}

// EdgeIDBound implements EdgeSpace: IDs are axis*order + vertex, below
// d*order.
func (g *Torus) EdgeIDBound() uint64 { return uint64(g.d) * g.order }

// Dist returns the L1 distance with per-axis wrap-around.
func (g *Torus) Dist(u, v Vertex) int {
	du, dv := uint64(u), uint64(v)
	total := 0
	for i := 0; i < g.d; i++ {
		cu, cv := du%g.side, dv%g.side
		du /= g.side
		dv /= g.side
		var diff uint64
		if cu > cv {
			diff = cu - cv
		} else {
			diff = cv - cu
		}
		if wrap := g.side - diff; wrap < diff {
			diff = wrap
		}
		total += int(diff)
	}
	return total
}

// ShortestPath returns a canonical geodesic fixing axes in increasing
// order, taking the shorter cyclic direction on each axis (ties go to
// the +1 direction).
func (g *Torus) ShortestPath(u, v Vertex) []Vertex {
	path := make([]Vertex, 0, g.Dist(u, v)+1)
	path = append(path, u)
	cur := u
	for a := 0; a < g.d; a++ {
		cc, tc := g.coord(cur, a), g.coord(v, a)
		var fwd uint64 // steps in +1 direction
		if tc >= cc {
			fwd = tc - cc
		} else {
			fwd = g.side - (cc - tc)
		}
		back := g.side - fwd // steps in -1 direction
		if fwd == 0 {
			continue
		}
		if fwd <= back {
			for s := uint64(0); s < fwd; s++ {
				cur = g.stepAxis(cur, a, +1)
				path = append(path, cur)
			}
		} else {
			for s := uint64(0); s < back; s++ {
				cur = g.stepAxis(cur, a, -1)
				path = append(path, cur)
			}
		}
	}
	return path
}

// stepAxis moves one step along axis a in direction dir (+1 or -1) with
// wrap-around.
func (g *Torus) stepAxis(v Vertex, a, dir int) Vertex {
	stride := g.stride(a)
	c := g.coord(v, a)
	if dir > 0 {
		if c == g.side-1 {
			return v - Vertex((g.side-1)*stride)
		}
		return v + Vertex(stride)
	}
	if c == 0 {
		return v + Vertex((g.side-1)*stride)
	}
	return v - Vertex(stride)
}

// Name implements Graph.
func (g *Torus) Name() string { return fmt.Sprintf("T^%d(%d)", g.d, g.side) }
