package overlay

import (
	"fmt"

	"faultroute/internal/arena"
	"faultroute/internal/graph"
)

// BacktrackLookup is greedy bit-fixing with depth-first backtracking:
// like GreedyLookup it prefers links that reduce Hamming distance to the
// owner, but instead of failing at a dead end it retreats along its walk
// and tries other improving links, and — when allowDetours is set — also
// non-improving links as a last resort. budget caps total transmission
// attempts.
//
// This is the "asymptotically efficient fault-tolerant lookup" family of
// repairs (Hildrum-Kubiatowicz and the DHT papers cited in Section 1)
// between the two extremes the paper contrasts: pure greedy (cheap,
// fragile) and flooding (robust, expensive). Experiment E16 shows where
// it lands: backtracking buys a wider working range than greedy, but
// with detours enabled it degenerates toward flooding cost exactly in
// the regime Theorem 3(i) predicts — below the routing transition
// there is no cheap repair.
func (o *Overlay) BacktrackLookup(from graph.Vertex, key uint64, budget int, allowDetours bool) (LookupResult, error) {
	owner := o.Owner(key)
	res := LookupResult{}
	if budget <= 0 {
		return res, fmt.Errorf("overlay: backtrack lookup: non-positive budget %d", budget)
	}
	if err := o.checkNode(from); err != nil {
		return res, fmt.Errorf("overlay: backtrack lookup: %w", err)
	}
	if from == owner {
		res.Found = true
		res.Path = []graph.Vertex{from}
		return res, nil
	}

	// Iterative DFS over the walk verts; cursors[i] counts the links of
	// verts[i] already passed over. The links are tried in two passes
	// over the dimensions, each in ascending order: first the improving
	// ones, where the vertex and the owner differ, then, with detours
	// on, the rest. Cursor c < dim is dimension c of the first pass and
	// dim <= c < 2*dim dimension c-dim of the second.
	a := arena.Acquire()
	defer a.Release()
	visited := a.Set(o.cube.Order())
	defer a.PutSet(visited)
	visited.Add(from)
	verts := append(a.Vertices(), from)
	cursors := append(a.Ints(), 0)
	defer func() {
		a.PutVertices(verts)
		a.PutInts(cursors)
	}()
	dim := o.cube.Dim()
	end := dim
	if allowDetours {
		end = 2 * dim
	}
	for len(verts) > 0 {
		top := len(verts) - 1
		v, c := verts[top], cursors[top]
		diff := v ^ owner
		for ; c < end; c++ {
			differs := diff>>uint(c%dim)&1 == 1
			if firstPass := c < dim; differs == firstPass {
				break // the link along c%dim belongs to c's pass
			}
		}
		if c == end {
			verts, cursors = verts[:top], cursors[:top] // backtrack
			continue
		}
		cursors[top] = c + 1
		w := v ^ graph.Vertex(1)<<uint(c%dim)
		if visited.Has(w) {
			continue
		}
		if res.Messages >= budget {
			return res, fmt.Errorf("%w: budget %d exhausted %d hops from owner",
				ErrLookupFailed, budget, o.cube.Dist(v, owner))
		}
		res.Messages++
		open, err := o.s.Open(v, w)
		if err != nil {
			return res, fmt.Errorf("overlay: backtrack lookup: %w", err)
		}
		if !open {
			continue
		}
		visited.Add(w)
		if w == owner {
			res.Found = true
			res.Path = append(append(make([]graph.Vertex, 0, len(verts)+1), verts...), w)
			res.Hops = len(res.Path) - 1
			return res, nil
		}
		verts = append(verts, w)
		cursors = append(cursors, 0)
	}
	return res, fmt.Errorf("%w: search space exhausted (visited %d nodes)",
		ErrLookupFailed, visited.Len())
}
