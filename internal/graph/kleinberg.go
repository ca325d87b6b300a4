package graph

import (
	"fmt"
	"sort"

	"faultroute/internal/rng"
)

// Kleinberg is the 2-dimensional small-world lattice of Kleinberg
// (STOC 2000): a side×side grid in which every vertex additionally draws
// one long-range contact, chosen with probability proportional to
// d(u,v)^-r where d is the lattice (L1) distance and r is the clustering
// exponent. At r = 2 greedy routing by lattice distance finds
// polylogarithmic paths; away from r = 2 it provably cannot — which
// makes the family the natural stress test for distance-guided routing
// under percolation (experiment E21).
//
// Unlike every paper topology, the contacts are sampled, so the graph is
// materialized at construction: all long-range edges are drawn up front
// from a stream split off the seed, deduplicated, folded into undirected
// adjacency, and assigned canonical edge IDs. Two constructions with the
// same (side, exponent, seed) are identical.
//
// Kleinberg implements Underlay, not Metric: the lattice distance that
// greedy routing steers by is an upper bound on the true graph distance
// (long-range contacts create shortcuts), so advertising it as an exact
// metric would be a lie the invariant tests catch.
type Kleinberg struct {
	side  uint64
	r     int
	seed  uint64
	order uint64
	// extra[u] lists u's long-range neighbors; extraID[u][i] is the
	// canonical edge ID of {u, extra[u][i]}. Grid edges reuse the mesh
	// encoding axis*order + smaller endpoint, so long-range IDs start at
	// 2*order.
	extra   [][]Vertex
	extraID [][]uint64
}

// maxKleinbergSide caps the grid side: contact sampling is O(order^2),
// and 64 (order 4096, ~33M distance evaluations) keeps construction
// instant while staying far beyond what the experiments need.
const maxKleinbergSide = 64

// maxKleinbergExponent caps the clustering exponent; the interesting
// regime is r in [0, 4] around the navigable point r = 2.
const maxKleinbergExponent = 8

// kleinbergSalt decorrelates contact sampling from every other consumer
// of the same seed.
const kleinbergSalt = 0x51e1_4be76

// NewKleinberg returns the side×side small-world lattice with clustering
// exponent r and the given contact seed.
func NewKleinberg(side, exponent int, seed uint64) (*Kleinberg, error) {
	if side < 3 || side > maxKleinbergSide {
		return nil, fmt.Errorf("graph: kleinberg side %d outside [3, %d]", side, maxKleinbergSide)
	}
	if exponent < 0 || exponent > maxKleinbergExponent {
		return nil, fmt.Errorf("graph: kleinberg exponent %d outside [0, %d]", exponent, maxKleinbergExponent)
	}
	g := &Kleinberg{
		side:  uint64(side),
		r:     exponent,
		seed:  seed,
		order: uint64(side) * uint64(side),
	}
	g.buildContacts()
	return g, nil
}

// MustKleinberg is NewKleinberg that panics on error; for tests.
func MustKleinberg(side, exponent int, seed uint64) *Kleinberg {
	g, err := NewKleinberg(side, exponent, seed)
	if err != nil {
		panic(err)
	}
	return g
}

// buildContacts draws one long-range contact per vertex and folds the
// directed draws into deduplicated undirected adjacency with stable IDs.
func (g *Kleinberg) buildContacts() {
	n := int(g.order)
	// weight[d] = d^-r, precomputed for every possible lattice distance.
	maxD := 2 * (int(g.side) - 1)
	weight := make([]float64, maxD+1)
	for d := 1; d <= maxD; d++ {
		w := 1.0
		for k := 0; k < g.r; k++ {
			w /= float64(d)
		}
		weight[d] = w
	}
	// One sequential stream, one draw per vertex in ascending order:
	// construction is a pure function of (side, r, seed).
	stream := rng.NewStream(rng.Combine(g.seed, kleinbergSalt))
	contact := make([]Vertex, n)
	for u := 0; u < n; u++ {
		total := 0.0
		for v := 0; v < n; v++ {
			if v != u {
				total += weight[g.latticeDist(Vertex(u), Vertex(v))]
			}
		}
		x := stream.Float64() * total
		chosen := -1
		for v := 0; v < n; v++ {
			if v == u {
				continue
			}
			x -= weight[g.latticeDist(Vertex(u), Vertex(v))]
			if x < 0 {
				chosen = v
				break
			}
		}
		if chosen < 0 {
			// Floating-point tail: the accumulated mass fell a hair short
			// of total; the draw lands on the last eligible vertex.
			chosen = n - 1
			if chosen == u {
				chosen--
			}
		}
		contact[u] = Vertex(chosen)
	}
	type edge struct{ lo, hi Vertex }
	seen := make(map[edge]bool, n)
	edges := make([]edge, 0, n)
	for u := 0; u < n; u++ {
		lo, hi := Vertex(u), contact[u]
		if lo > hi {
			lo, hi = hi, lo
		}
		e := edge{lo, hi}
		// Drop duplicate draws (u picked v and v picked u) and contacts
		// that are already grid neighbors — the graph stays simple.
		if seen[e] || g.latticeDist(lo, hi) == 1 {
			continue
		}
		seen[e] = true
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].lo != edges[j].lo {
			return edges[i].lo < edges[j].lo
		}
		return edges[i].hi < edges[j].hi
	})
	g.extra = make([][]Vertex, n)
	g.extraID = make([][]uint64, n)
	for i, e := range edges {
		id := 2*g.order + uint64(i)
		g.extra[e.lo] = append(g.extra[e.lo], e.hi)
		g.extraID[e.lo] = append(g.extraID[e.lo], id)
		g.extra[e.hi] = append(g.extra[e.hi], e.lo)
		g.extraID[e.hi] = append(g.extraID[e.hi], id)
	}
}

// Side returns the grid side length.
func (g *Kleinberg) Side() int { return int(g.side) }

// Exponent returns the clustering exponent r.
func (g *Kleinberg) Exponent() int { return g.r }

// Seed returns the contact seed.
func (g *Kleinberg) Seed() uint64 { return g.seed }

// Order returns side².
func (g *Kleinberg) Order() uint64 { return g.order }

// latticeDist is the L1 distance on the underlying (non-wrapping) grid.
func (g *Kleinberg) latticeDist(u, v Vertex) int {
	ux, uy := uint64(u)%g.side, uint64(u)/g.side
	vx, vy := uint64(v)%g.side, uint64(v)/g.side
	d := 0
	if ux > vx {
		d += int(ux - vx)
	} else {
		d += int(vx - ux)
	}
	if uy > vy {
		d += int(uy - vy)
	} else {
		d += int(vy - uy)
	}
	return d
}

// UnderlayDist implements Underlay: the lattice distance greedy routing
// steers by, an upper bound on the true graph distance.
func (g *Kleinberg) UnderlayDist(u, v Vertex) int { return g.latticeDist(u, v) }

// Degree implements Graph.
func (g *Kleinberg) Degree(v Vertex) int {
	return g.gridDegree(v) + len(g.extra[v])
}

func (g *Kleinberg) gridDegree(v Vertex) int {
	x, y := uint64(v)%g.side, uint64(v)/g.side
	deg := 0
	if x > 0 {
		deg++
	}
	if x < g.side-1 {
		deg++
	}
	if y > 0 {
		deg++
	}
	if y < g.side-1 {
		deg++
	}
	return deg
}

// Neighbor implements Graph: grid neighbors first (x-axis then y-axis,
// decrement before increment, matching the mesh ordering), then the
// long-range contacts.
func (g *Kleinberg) Neighbor(v Vertex, i int) Vertex {
	x, y := uint64(v)%g.side, uint64(v)/g.side
	if x > 0 {
		if i == 0 {
			return v - 1
		}
		i--
	}
	if x < g.side-1 {
		if i == 0 {
			return v + 1
		}
		i--
	}
	if y > 0 {
		if i == 0 {
			return v - Vertex(g.side)
		}
		i--
	}
	if y < g.side-1 {
		if i == 0 {
			return v + Vertex(g.side)
		}
		i--
	}
	return g.extra[v][i]
}

// EdgeID implements Graph: grid edges use the mesh encoding
// axis*order + smaller endpoint (axis 0 = x, axis 1 = y); long-range
// edges use sequential IDs starting at 2*order.
func (g *Kleinberg) EdgeID(u, v Vertex) (uint64, bool) {
	if u == v || uint64(u) >= g.order || uint64(v) >= g.order {
		return 0, false
	}
	lo, hi := u, v
	if lo > hi {
		lo, hi = hi, lo
	}
	lx, ly := uint64(lo)%g.side, uint64(lo)/g.side
	hx, hy := uint64(hi)%g.side, uint64(hi)/g.side
	if ly == hy && hx == lx+1 {
		return uint64(lo), true // x-axis grid edge
	}
	if lx == hx && hy == ly+1 {
		return g.order + uint64(lo), true // y-axis grid edge
	}
	for i, w := range g.extra[lo] {
		if w == hi {
			return g.extraID[lo][i], true
		}
	}
	return 0, false
}

// EdgeIDBound implements EdgeSpace: grid IDs are below 2*order, and
// the at most order long-range edges (one draw per vertex) follow.
func (g *Kleinberg) EdgeIDBound() uint64 { return 3 * g.order }

// Name implements Graph.
func (g *Kleinberg) Name() string {
	return fmt.Sprintf("K_%d(r=%d)", g.side, g.r)
}
