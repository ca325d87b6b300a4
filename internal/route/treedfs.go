package route

import (
	"fmt"

	"faultroute/internal/graph"
	"faultroute/internal/percolation"
	"faultroute/internal/probe"
)

// DoubleTreeOracle is the Theorem 9 oracle router for the double binary
// tree TT_n: to route between the two roots it probes each tree-A edge
// *together with its mirror edge in tree B*, depth-first, descending only
// into children whose edge pair is fully open. Reaching a leaf yields the
// path (A-branch down, B-branch up) immediately.
//
// Probing mirrored pairs turns the search into a depth-first exploration
// of a Galton-Watson tree with offspring Binomial(2, p²), which is
// supercritical exactly when p > 1/√2 (Lemma 6) and then reaches depth n
// in expected O(n) probes — exponentially cheaper than any local router
// (Theorem 7). The router is intrinsically non-local: it probes B-edges
// long before any path to them is established, which is why it must be
// run against an Oracle prober (a Local prober rejects it).
type DoubleTreeOracle struct{}

// NewDoubleTreeOracle returns the Theorem 9 router. Route fails unless
// the prober's graph is a *graph.DoubleTree and the endpoints are its
// two roots (in either order).
func NewDoubleTreeOracle() *DoubleTreeOracle { return &DoubleTreeOracle{} }

// Name implements Router.
func (r *DoubleTreeOracle) Name() string { return "double-tree-oracle" }

// Route implements Router.
func (r *DoubleTreeOracle) Route(pr probe.Prober, src, dst graph.Vertex) (Path, error) {
	tt, ok := pr.Graph().(*graph.DoubleTree)
	if !ok {
		return nil, fmt.Errorf("route: double-tree oracle needs a *graph.DoubleTree, got %s", pr.Graph().Name())
	}
	swapped := false
	switch {
	case src == tt.RootA() && dst == tt.RootB():
	case src == tt.RootB() && dst == tt.RootA():
		swapped = true
	default:
		return nil, fmt.Errorf("route: double-tree oracle routes only between the roots, got (%d, %d)", src, dst)
	}

	leafHeap, err := r.dfs(pr, tt)
	if err != nil {
		return nil, err
	}

	path := r.assemble(tt, leafHeap)
	if swapped {
		for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
			path[i], path[j] = path[j], path[i]
		}
	}
	return path, nil
}

// dfs depth-first searches heap indices from the root, descending into a
// child only when both its A-edge and its mirror B-edge are open, and
// returns the heap index of the first leaf reached. The search is lazy:
// a node's right child pair is probed only after the left subtree has
// been exhausted, so a fault-free descent costs exactly 2 probes per
// level and a failed subtree costs its own (subcritical) exploration.
func (r *DoubleTreeOracle) dfs(pr probe.Prober, tt *graph.DoubleTree) (uint64, error) {
	leafLevel := tt.NumLeaves() // heap indices >= 2^n are leaves
	type frame struct {
		h    uint64
		next int // 0 = left child untried, 1 = right untried, 2 = done
	}
	stack := []frame{{h: 1}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.h >= leafLevel {
			return f.h, nil
		}
		if f.next == 2 {
			stack = stack[:len(stack)-1]
			continue
		}
		c := 2*f.h + uint64(f.next)
		f.next++
		open, err := r.pairOpen(pr, tt, f.h, c)
		if err != nil {
			return 0, err
		}
		if open {
			stack = append(stack, frame{h: c})
		}
	}
	return 0, fmt.Errorf("%w: no leaf with both branches open", ErrNoPath)
}

// pairOpen probes the A-edge from heap h to child heap c and its mirror
// B-edge, reporting whether both are open. The B-edge is probed first so
// a closed mirror short-circuits only one probe on average — the order
// does not affect correctness, only constants.
func (r *DoubleTreeOracle) pairOpen(pr probe.Prober, tt *graph.DoubleTree, h, c uint64) (bool, error) {
	for _, side := range [2]graph.Side{graph.SideA, graph.SideB} {
		parent, err := tt.VertexAt(side, h)
		if err != nil {
			return false, fmt.Errorf("route: double-tree oracle: %w", err)
		}
		child, err := tt.VertexAt(side, c)
		if err != nil {
			return false, fmt.Errorf("route: double-tree oracle: %w", err)
		}
		open, err := pr.Probe(parent, child)
		if err != nil {
			return false, fmt.Errorf("route: double-tree oracle: %w", err)
		}
		if !open {
			return false, nil
		}
	}
	return true, nil
}

// assemble builds the root-to-root path through the leaf at heap index
// leafHeap: the A-branch down, then the B-branch up.
func (r *DoubleTreeOracle) assemble(tt *graph.DoubleTree, leafHeap uint64) Path {
	// Heap indices from root to leaf.
	var chain []uint64
	for h := leafHeap; h >= 1; h /= 2 {
		chain = append(chain, h)
		if h == 1 {
			break
		}
	}
	// chain is leaf..root; walk it backwards for the A side.
	path := make(Path, 0, 2*len(chain)-1)
	for i := len(chain) - 1; i >= 0; i-- {
		v, err := tt.VertexAt(graph.SideA, chain[i])
		if err != nil {
			panic(err) // heap chain is valid by construction
		}
		path = append(path, v)
	}
	// Up the B side, skipping the shared leaf itself.
	for i := 1; i < len(chain); i++ {
		v, err := tt.VertexAt(graph.SideB, chain[i])
		if err != nil {
			panic(err)
		}
		path = append(path, v)
	}
	return path
}

// maxDoubleTreeDepth is the largest depth graph.NewDoubleTree builds;
// TestDoubleTreeRootsLinkedDeepestTree fails if that cap grows.
const maxDoubleTreeDepth = 40

// DoubleTreeRootsLinked reports whether the two roots of the double tree
// are joined by a mirrored open branch — the success event of the
// Theorem 9 router and the connectivity event Lemma 6 analyzes. It is
// evaluated lazily (expected O(depth) probes when supercritical), so it
// conditions experiments on depths far beyond exact labeling.
func DoubleTreeRootsLinked(s percolation.Sample, budget int) (bool, error) {
	tt, ok := s.Graph().(*graph.DoubleTree)
	if !ok {
		return false, fmt.Errorf("route: roots-linked check needs a *graph.DoubleTree, got %s", s.Graph().Name())
	}
	leafLevel := tt.NumLeaves()
	probes := 0
	// The search holds one frame per level from the root down, so depth
	// d needs at most d+1 frames: a fixed array keeps it allocation-free.
	type frame struct {
		h    uint64
		next int
	}
	var stack [maxDoubleTreeDepth + 1]frame
	stack[0] = frame{h: 1}
	top := 1
	for top > 0 {
		f := &stack[top-1]
		if f.h >= leafLevel {
			return true, nil
		}
		if f.next == 2 {
			top--
			continue
		}
		c := 2*f.h + uint64(f.next)
		f.next++
		probes += 2
		if budget > 0 && probes > budget {
			return false, probe.ErrBudget
		}
		bothOpen := true
		for _, side := range [2]graph.Side{graph.SideA, graph.SideB} {
			parent, err := tt.VertexAt(side, f.h)
			if err != nil {
				return false, err
			}
			child, err := tt.VertexAt(side, c)
			if err != nil {
				return false, err
			}
			open, err := s.Open(parent, child)
			if err != nil {
				return false, err
			}
			if !open {
				bothOpen = false
				break
			}
		}
		if bothOpen {
			stack[top] = frame{h: c}
			top++
		}
	}
	return false, nil
}
