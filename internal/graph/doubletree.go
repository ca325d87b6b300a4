package graph

import "fmt"

// DoubleTree is the double binary tree TT_n of Section 2.1: two complete
// binary trees of depth n whose leaves are identified pairwise. Its two
// roots are at distance 2n, and the paper proves an exponential gap on it:
// any local router between the roots needs about p^{-n} probes (Theorem 7)
// while a pair-probing oracle router needs only O(n) (Theorem 9).
//
// Vertex layout (NA = 2^n - 1 internal vertices per tree, L = 2^n leaves):
//
//	[0, NA)          internal vertices of tree A, heap order (root first)
//	[NA, NA+L)       the shared leaves
//	[NA+L, NA+L+NA)  internal vertices of tree B, heap order
//
// Heap indices follow the classic binary-heap convention: the root is 1,
// the children of h are 2h and 2h+1, and indices in [2^n, 2^{n+1}) are the
// leaves. Both trees use the same heap indexing; leaf i of tree A is
// identified with leaf i of tree B.
type DoubleTree struct {
	depth     int
	internals uint64 // NA = 2^depth - 1
	leaves    uint64 // L = 2^depth
}

// NewDoubleTree returns TT_n for depth n in [1, 40] (order 3*2^n - 2).
func NewDoubleTree(n int) (*DoubleTree, error) {
	if n < 1 || n > 40 {
		return nil, fmt.Errorf("graph: double tree depth %d out of range [1, 40]", n)
	}
	l := uint64(1) << uint(n)
	return &DoubleTree{depth: n, internals: l - 1, leaves: l}, nil
}

// MustDoubleTree is NewDoubleTree that panics on error.
func MustDoubleTree(n int) *DoubleTree {
	g, err := NewDoubleTree(n)
	if err != nil {
		panic(err)
	}
	return g
}

// Depth returns n, the depth of each constituent tree.
func (g *DoubleTree) Depth() int { return g.depth }

// Order returns 3*2^n - 2.
func (g *DoubleTree) Order() uint64 { return 2*g.internals + g.leaves }

// RootA returns the root of the first tree (the paper's x).
func (g *DoubleTree) RootA() Vertex { return 0 }

// RootB returns the root of the second tree (the paper's y).
func (g *DoubleTree) RootB() Vertex { return Vertex(g.internals + g.leaves) }

// NumLeaves returns 2^n.
func (g *DoubleTree) NumLeaves() uint64 { return g.leaves }

// Leaf returns the i-th shared leaf, 0 <= i < NumLeaves().
func (g *DoubleTree) Leaf(i uint64) Vertex { return Vertex(g.internals + i) }

// IsLeaf reports whether v is one of the shared leaves.
func (g *DoubleTree) IsLeaf(v Vertex) bool {
	return uint64(v) >= g.internals && uint64(v) < g.internals+g.leaves
}

// Side identifies which tree an internal vertex belongs to.
type Side int

// Tree sides. Leaves belong to both trees.
const (
	SideA Side = iota
	SideB
)

// VertexAt returns the vertex with heap index h (1 <= h < 2^{n+1})
// interpreted in the given tree: internal indices map into that tree's
// internal block, leaf indices map to the shared leaves regardless of
// side.
func (g *DoubleTree) VertexAt(side Side, h uint64) (Vertex, error) {
	if h < 1 || h >= 2*g.leaves {
		return 0, fmt.Errorf("graph: heap index %d out of range [1, %d)", h, 2*g.leaves)
	}
	if h >= g.leaves { // leaf level
		return Vertex(g.internals + (h - g.leaves)), nil
	}
	if side == SideA {
		return Vertex(h - 1), nil
	}
	return Vertex(g.internals + g.leaves + (h - 1)), nil
}

// HeapIndex returns the heap index of v within the given tree, or ok=false
// if v is an internal vertex of the other tree.
func (g *DoubleTree) HeapIndex(side Side, v Vertex) (uint64, bool) {
	x := uint64(v)
	switch {
	case x < g.internals: // internal of A
		if side != SideA {
			return 0, false
		}
		return x + 1, true
	case x < g.internals+g.leaves: // shared leaf
		return g.leaves + (x - g.internals), true
	default: // internal of B
		if side != SideB {
			return 0, false
		}
		return x - g.internals - g.leaves + 1, true
	}
}

// Degree: roots have 2 children; other internal vertices have a parent
// and 2 children; leaves have one parent in each tree.
func (g *DoubleTree) Degree(v Vertex) int {
	if g.IsLeaf(v) {
		return 2
	}
	if v == g.RootA() || v == g.RootB() {
		return 2
	}
	return 3
}

// Neighbor enumerates, for internal vertices, [parent,] left child, right
// child; for leaves, parent in A then parent in B.
func (g *DoubleTree) Neighbor(v Vertex, i int) Vertex {
	if g.IsLeaf(v) {
		h, _ := g.HeapIndex(SideA, v)
		side := SideA
		if i == 1 {
			side = SideB
		} else if i != 0 {
			panic(fmt.Sprintf("graph: double tree leaf neighbor index %d out of range", i))
		}
		w, err := g.VertexAt(side, h/2)
		if err != nil {
			panic(err)
		}
		return w
	}
	side := SideA
	if uint64(v) >= g.internals+g.leaves {
		side = SideB
	}
	h, _ := g.HeapIndex(side, v)
	idx := i
	if h > 1 { // non-root internal: parent comes first
		if i == 0 {
			w, err := g.VertexAt(side, h/2)
			if err != nil {
				panic(err)
			}
			return w
		}
		idx = i - 1
	}
	if idx < 0 || idx > 1 {
		panic(fmt.Sprintf("graph: double tree neighbor index %d out of range", i))
	}
	w, err := g.VertexAt(side, 2*h+uint64(idx))
	if err != nil {
		panic(err)
	}
	return w
}

// EdgeID encodes each edge by the heap index of its child endpoint:
// A-edges get id = childHeap, B-edges get id = 2^{n+1} + childHeap.
// Every tree edge has a unique child, so IDs are unique.
func (g *DoubleTree) EdgeID(u, v Vertex) (uint64, bool) {
	for _, side := range []Side{SideA, SideB} {
		hu, ok1 := g.HeapIndex(side, u)
		hv, ok2 := g.HeapIndex(side, v)
		if !ok1 || !ok2 {
			continue
		}
		var child uint64
		switch {
		case hv/2 == hu && hv >= 2:
			child = hv
		case hu/2 == hv && hu >= 2:
			child = hu
		default:
			continue
		}
		// A leaf pair can never be parent/child (both at the same level),
		// so reaching here identifies the side unambiguously.
		if side == SideA {
			return child, true
		}
		return 2*g.leaves + child, true
	}
	return 0, false
}

// EdgeIDBound implements EdgeSpace: child heap indices are below
// 2*leaves, and B-edges add 2*leaves.
func (g *DoubleTree) EdgeIDBound() uint64 { return 4 * g.leaves }

// MirrorEdgeID returns the ID of the corresponding edge in the other
// tree: the edge with the same child heap index. The Theorem 9 oracle
// router probes edges in such pairs.
func (g *DoubleTree) MirrorEdgeID(id uint64) (uint64, bool) {
	span := 2 * g.leaves
	switch {
	case id >= 2 && id < span:
		return span + id, true
	case id >= span+2 && id < 2*span:
		return id - span, true
	default:
		return 0, false
	}
}

// Name implements Graph.
func (g *DoubleTree) Name() string { return fmt.Sprintf("TT_%d", g.depth) }
