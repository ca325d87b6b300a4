package percolation

import (
	"fmt"
	"sort"

	"faultroute/internal/graph"
)

// Components is the exact connected-component structure of a percolation
// sample, computed by a single pass over all base edges. It answers the
// conditioning question of Definition 2 — is u connected to v? — exactly.
type Components struct {
	uf    *UnionFind
	order uint64
}

// maxLabelOrder caps the graph sizes we are willing to label exactly:
// labeling stores two uint64 per vertex.
const maxLabelOrder = 1 << 28

// Label computes the components of the sample. It is linear in the number
// of base edges and needs O(order) memory; samples of graphs larger than
// 2^28 vertices are rejected.
func Label(s Sample) (*Components, error) {
	n := s.Graph().Order()
	if n > maxLabelOrder {
		return nil, fmt.Errorf("percolation: graph %s too large to label exactly (%d vertices)",
			s.Graph().Name(), n)
	}
	uf := NewUnionFind(n)
	graph.ForEachEdge(s.Graph(), func(u, v graph.Vertex, id uint64) bool {
		if s.OpenEdgeID(u, v, id) {
			uf.Union(uint64(u), uint64(v))
		}
		return true
	})
	return &Components{uf: uf, order: n}, nil
}

// Connected reports whether u and v lie in the same open component.
func (c *Components) Connected(u, v graph.Vertex) bool {
	return c.uf.Same(uint64(u), uint64(v))
}

// SizeOf returns the size of v's component.
func (c *Components) SizeOf(v graph.Vertex) uint64 {
	return c.uf.SizeOf(uint64(v))
}

// Count returns the number of components.
func (c *Components) Count() uint64 { return c.uf.Sets() }

// GiantSize returns the size of the largest component, in O(1).
func (c *Components) GiantSize() uint64 { return c.uf.largest }

// GiantFraction returns GiantSize / order.
func (c *Components) GiantFraction() float64 {
	return float64(c.GiantSize()) / float64(c.order)
}

// InGiant reports whether v belongs to a largest component. When several
// components tie for largest, membership in any of them counts.
func (c *Components) InGiant(v graph.Vertex) bool {
	return c.SizeOf(v) == c.GiantSize()
}

// SizesDescending returns all component sizes, largest first.
func (c *Components) SizesDescending() []uint64 {
	var sizes []uint64
	for v := uint64(0); v < c.order; v++ {
		if c.uf.Find(v) == v {
			sizes = append(sizes, c.uf.SizeOf(v))
		}
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] > sizes[j] })
	return sizes
}
