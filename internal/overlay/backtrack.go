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

	// Iterative DFS with per-node alive-neighbor iterators, improving
	// links first.
	type frame struct {
		v     graph.Vertex
		cands []graph.Vertex
		next  int
	}
	a := arena.Acquire()
	defer a.Release()
	visited := a.Set(o.cube.Order())
	defer a.PutSet(visited)
	visited.Add(from)
	candidates := func(v graph.Vertex) []graph.Vertex {
		var improving, detours []graph.Vertex
		for dim := 0; dim < o.cube.Dim(); dim++ {
			w := v ^ graph.Vertex(1<<uint(dim))
			if o.cube.Dist(w, owner) < o.cube.Dist(v, owner) {
				improving = append(improving, w)
			} else if allowDetours {
				detours = append(detours, w)
			}
		}
		return append(improving, detours...)
	}
	stack := []frame{{v: from, cands: candidates(from)}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next >= len(f.cands) {
			stack = stack[:len(stack)-1] // backtrack
			continue
		}
		w := f.cands[f.next]
		f.next++
		if visited.Has(w) {
			continue
		}
		if res.Messages >= budget {
			return res, fmt.Errorf("%w: budget %d exhausted %d hops from owner",
				ErrLookupFailed, budget, o.cube.Dist(f.v, owner))
		}
		res.Messages++
		open, err := o.s.Open(f.v, w)
		if err != nil {
			return res, fmt.Errorf("overlay: backtrack lookup: %w", err)
		}
		if !open {
			continue
		}
		visited.Add(w)
		if w == owner {
			res.Found = true
			path := make([]graph.Vertex, 0, len(stack)+1)
			for i := range stack {
				path = append(path, stack[i].v)
			}
			res.Path = append(path, w)
			res.Hops = len(res.Path) - 1
			return res, nil
		}
		stack = append(stack, frame{v: w, cands: candidates(w)})
	}
	return res, fmt.Errorf("%w: search space exhausted (visited %d nodes)",
		ErrLookupFailed, visited.Len())
}
