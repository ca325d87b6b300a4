// Package overlay implements a structured peer-to-peer overlay whose
// topology is the hypercube, the model the paper's Section 1.3 points at
// when it predicts how its results bear on P2P networks: "if the network
// suffers many faults, flooding and gossiping techniques would remain
// efficient means to locate data (in terms of latency) while the routing
// based exact search algorithms fail."
//
// Nodes are hypercube vertices; a key is owned by the vertex its hash
// selects; links fail per a percolation sample. Two lookup strategies are
// provided: the exact-routing greedy bit-fixing lookup every
// hypercube-like DHT uses (Chord/Pastry-style), which dies when the
// percolated metric diverges from the cube metric, and TTL-bounded
// flooding, which keeps finding keys as long as a short open path exists.
// Experiment E11 sweeps p across both transitions and watches greedy
// collapse first.
package overlay

import (
	"errors"
	"fmt"

	"faultroute/internal/arena"
	"faultroute/internal/graph"
	"faultroute/internal/percolation"
	"faultroute/internal/rng"
)

// ErrLookupFailed reports that a lookup terminated without reaching the
// key's owner.
var ErrLookupFailed = errors.New("overlay: lookup failed")

// Overlay is a hypercube-topology DHT over a percolation sample of link
// failures.
type Overlay struct {
	cube *graph.Hypercube
	s    percolation.Sample
}

// New builds an overlay of 2^n nodes with link failure probability
// 1-p, deterministic in seed.
func New(n int, p float64, seed uint64) (*Overlay, error) {
	cube, err := graph.NewHypercube(n)
	if err != nil {
		return nil, fmt.Errorf("overlay: %w", err)
	}
	return &Overlay{cube: cube, s: percolation.New(cube, p, seed)}, nil
}

// Sample exposes the underlying percolation sample (for conditioning in
// experiments).
func (o *Overlay) Sample() percolation.Sample { return o.s }

// Cube returns the underlying hypercube.
func (o *Overlay) Cube() *graph.Hypercube { return o.cube }

// Owner returns the node responsible for a key: the vertex selected by
// the key's hash.
func (o *Overlay) Owner(key uint64) graph.Vertex {
	return graph.Vertex(rng.Mix64(key) & (o.cube.Order() - 1))
}

// LookupResult reports one lookup attempt.
type LookupResult struct {
	// Found is true when the lookup reached the key's owner.
	Found bool
	// Hops is the number of links actually traversed.
	Hops int
	// Messages counts link transmission attempts, including attempts on
	// failed links (a node discovers a dead link only by trying it).
	Messages int
	// Path is the node sequence walked (greedy) or the discovered route
	// (flood), when Found.
	Path []graph.Vertex
}

// GreedyLookup routes toward the key's owner by bit-fixing: at each node
// it tries the links that reduce Hamming distance to the owner, in
// ascending dimension order, moving over the first alive one. It fails
// when every improving link of the current node is dead — the exact
// failure mode Theorem 3(i) predicts becomes typical once p drops below
// the routing transition.
func (o *Overlay) GreedyLookup(from graph.Vertex, key uint64) (LookupResult, error) {
	owner := o.Owner(key)
	res := LookupResult{Path: []graph.Vertex{from}}
	cur := from
	for cur != owner {
		moved := false
		diff := uint64(cur ^ owner)
		for dim := 0; dim < o.cube.Dim(); dim++ {
			if diff&(1<<uint(dim)) == 0 {
				continue
			}
			next := cur ^ graph.Vertex(1<<uint(dim))
			res.Messages++
			open, err := o.s.Open(cur, next)
			if err != nil {
				return res, fmt.Errorf("overlay: greedy lookup: %w", err)
			}
			if open {
				cur = next
				res.Hops++
				res.Path = append(res.Path, cur)
				moved = true
				break
			}
		}
		if !moved {
			return res, fmt.Errorf("%w: stuck at %d, distance %d from owner",
				ErrLookupFailed, cur, o.cube.Dist(cur, owner))
		}
	}
	res.Found = true
	return res, nil
}

// FloodLookup searches for the key's owner by TTL-bounded flooding over
// alive links (synchronous BFS rounds, each node forwarding once). It
// returns the discovered path to the owner and the total number of
// transmission attempts — the latency is the BFS depth, the cost is the
// message count.
func (o *Overlay) FloodLookup(from graph.Vertex, key uint64, ttl int) (LookupResult, error) {
	owner := o.Owner(key)
	res := LookupResult{}
	if ttl <= 0 {
		return res, fmt.Errorf("overlay: flood lookup: non-positive ttl %d", ttl)
	}
	if err := o.checkNode(from); err != nil {
		return res, fmt.Errorf("overlay: flood lookup: %w", err)
	}
	if from == owner {
		res.Found = true
		res.Path = []graph.Vertex{from}
		return res, nil
	}
	a := arena.Acquire()
	defer a.Release()
	parent := a.Map(o.cube.Order())
	defer a.PutMap(parent)
	parent.Set(from, from)
	frontier := append(a.Vertices(), from)
	next := a.Vertices()
	defer func() {
		a.PutVertices(frontier)
		a.PutVertices(next)
	}()
	for depth := 1; depth <= ttl && len(frontier) > 0; depth++ {
		next = next[:0]
		for _, v := range frontier {
			for dim := 0; dim < o.cube.Dim(); dim++ {
				w := v ^ graph.Vertex(1<<uint(dim))
				if parent.Has(w) {
					continue
				}
				res.Messages++
				open, err := o.s.Open(v, w)
				if err != nil {
					return res, fmt.Errorf("overlay: flood lookup: %w", err)
				}
				if !open {
					continue
				}
				parent.Set(w, v)
				if w == owner {
					res.Found = true
					res.Hops = depth
					res.Path = chain(parent, from, owner, depth)
					return res, nil
				}
				next = append(next, w)
			}
		}
		frontier, next = next, frontier
	}
	return res, fmt.Errorf("%w: owner of key %d not reached within ttl %d",
		ErrLookupFailed, key, ttl)
}

// checkNode rejects a vertex that is not a node of the overlay.
func (o *Overlay) checkNode(v graph.Vertex) error {
	if n := o.cube.Order(); uint64(v) >= n {
		return fmt.Errorf("node %d out of range [0, %d)", v, n)
	}
	return nil
}

// chain rebuilds the path from..dst, hops links long, from parent
// pointers.
func chain(parent *arena.VMap, from, dst graph.Vertex, hops int) []graph.Vertex {
	path := make([]graph.Vertex, hops+1)
	v := dst
	for i := hops; i > 0; i-- {
		path[i] = v
		v, _ = parent.Get(v)
	}
	path[0] = from
	return path
}
