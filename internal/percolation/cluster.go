package percolation

import (
	"errors"
	"fmt"
	"math"

	"faultroute/internal/arena"
	"faultroute/internal/graph"
)

// ErrVisitBudget is returned by cluster exploration when the open cluster
// was not exhausted within the visit budget.
var ErrVisitBudget = errors.New("percolation: cluster exploration exceeded visit budget")

// Cluster is the result of exploring the open cluster of a start vertex
// by breadth-first search over open edges. It works on samples of graphs
// far too large to label exactly (the exploration touches only the
// cluster itself plus its closed boundary).
//
// Its distance table is a flat epoch-stamped structure rather than a
// map, so a Cluster can be reused across trials with ExploreInto: the
// table resets in O(1) and its backing arrays are recycled, which keeps
// sweep loops allocation-free after the first trial.
type Cluster struct {
	// Start is the exploration origin.
	Start graph.Vertex
	// Vertices holds every vertex of the cluster in BFS order. The
	// slice doubles as the BFS queue, so it is exactly the visit order.
	Vertices []graph.Vertex
	// EdgesProbed counts the distinct base edges whose state the
	// exploration examined (open or closed).
	EdgesProbed uint64
	// Exhausted is true when the whole cluster was enumerated; false when
	// the visit budget stopped the search early.
	Exhausted bool

	// dist maps each cluster vertex to its open-path distance from
	// Start (stored through arena.VMap's vertex-valued slots).
	dist arena.VMap
}

// Explore runs a BFS from start over open edges, visiting at most
// maxVertices cluster vertices (0 means unlimited). It never errors on a
// budget stop; check Exhausted.
func Explore(s Sample, start graph.Vertex, maxVertices uint64) *Cluster {
	c := &Cluster{}
	ExploreInto(c, s, start, maxVertices)
	return c
}

// ExploreInto is Explore reusing c's tables and buffers: resetting them
// is O(1) (an epoch bump), so trial loops exploring many samples pay
// the table allocations once. The previous contents of c are discarded.
func ExploreInto(c *Cluster, s Sample, start graph.Vertex, maxVertices uint64) {
	g := s.Graph()
	c.Start = start
	c.Vertices = c.Vertices[:0]
	c.EdgesProbed = 0
	c.Exhausted = false
	// Sparse always: exploration is the output-sensitive tool for
	// graphs whose clusters are tiny next to Order(), so the distance
	// table must be sized to the cluster (like the map it replaced),
	// never to the graph.
	c.dist.ResetSparse()

	c.dist.Set(start, 0)
	c.Vertices = append(c.Vertices, start)
	for head := 0; head < len(c.Vertices); head++ {
		v := c.Vertices[head]
		dv, _ := c.dist.Get(v)
		d := g.Degree(v)
		for i := 0; i < d; i++ {
			w := g.Neighbor(v, i)
			if c.dist.Has(w) {
				continue
			}
			id, ok := g.EdgeID(v, w)
			if !ok {
				continue
			}
			c.EdgesProbed++
			if !s.OpenEdgeID(v, w, id) {
				continue
			}
			c.dist.Set(w, dv+1)
			c.Vertices = append(c.Vertices, w)
			if maxVertices > 0 && uint64(len(c.Vertices)) >= maxVertices {
				return // Exhausted stays false
			}
		}
	}
	c.Exhausted = true
}

// Size returns the number of cluster vertices found.
func (c *Cluster) Size() uint64 { return uint64(len(c.Vertices)) }

// Contains reports whether v was reached.
func (c *Cluster) Contains(v graph.Vertex) bool { return c.dist.Has(v) }

// Dist returns the open-path distance from Start to v, or ok=false if v
// was not reached.
func (c *Cluster) Dist(v graph.Vertex) (dist int, ok bool) {
	d, ok := c.dist.Get(v)
	return int(d), ok
}

// PercolationDist returns the open-path distance between u and v (the
// "percolation distance" D(u,v) of Section 4), or -1 if v was not reached
// within the visit budget. The second return is false when the budget
// ran out before the answer was determined.
func PercolationDist(s Sample, u, v graph.Vertex, maxVertices uint64) (dist int, decided bool) {
	c := Explore(s, u, maxVertices)
	if d, ok := c.Dist(v); ok {
		return d, true
	}
	if c.Exhausted {
		return -1, true
	}
	return -1, false
}

// Connected reports exactly whether u and v lie in the same open
// component. It is ConnectedLazy with no expansion budget, so it always
// decides; the answer is exactly Label's.
//
// Graphs beyond the exact-labeling cap are rejected with the same error
// as Label, keeping Estimate's behavior on huge implicit graphs
// unchanged.
func Connected(s Sample, u, v graph.Vertex) (bool, error) {
	connected, _, err := ConnectedLazy(s, u, v, 0)
	return connected, err
}

// ConnectedLazy decides whether u and v lie in the same open component
// by an alternating bidirectional search (Pohl 1971) that expands at
// most maxExpansions vertices (0 means unlimited). u's and v's open
// clusters grow one vertex at a time, always from the side with the
// smaller pending queue. The answer is true as soon as an open edge
// reaches a vertex the other side has already seen, and false as soon
// as either queue runs dry — that side's whole cluster is then known
// and does not hold the other endpoint. decided is false when the
// budget ran out first. Edge states are stateless coin hashes, so the
// search order consumes no randomness and does not depend on the
// budget: a call decided at one budget is decided, with the same
// answer, at every larger one, and every decided answer is Label's.
//
// The search is output-sensitive: it touches only the explored parts of
// the two clusters and their closed boundaries, and a small cluster on
// either side decides the event at its own size, where exact labeling
// always pays for every edge of the graph. All scratch — one vertex map
// tagging each seen vertex with its side, and two queues — comes from
// the pooled trial arena, so conditioning loops allocate nothing in
// steady state. core.EstimateTrial runs it with a small budget as a
// pre-check before routing: in supercritical regimes the clusters
// outside the giant component are small, so most disconnected samples
// are rejected within the budget.
//
// Graphs beyond the exact-labeling cap are rejected with Connected's
// error whatever the budget, before any search.
func ConnectedLazy(s Sample, u, v graph.Vertex, maxExpansions uint64) (connected, decided bool, err error) {
	g := s.Graph()
	n := g.Order()
	if n > maxLabelOrder {
		return false, false, fmt.Errorf("percolation: graph %s too large to label exactly (%d vertices)",
			g.Name(), n)
	}
	if u == v {
		return true, true, nil
	}
	if maxExpansions == 0 {
		maxExpansions = math.MaxUint64
	}
	a := arena.Acquire()
	defer a.Release()
	// One lookup in side answers both "seen from here?" and "seen from
	// the other side?": it maps each seen vertex to 0 (u's side) or 1.
	side := a.Map(n)
	queues := [2][]graph.Vertex{append(a.Vertices(), u), append(a.Vertices(), v)}
	var heads [2]int
	defer func() {
		a.PutVertices(queues[0])
		a.PutVertices(queues[1])
		a.PutMap(side)
	}()
	side.Set(u, 0)
	side.Set(v, 1)
	// Pure bond samples skip the two endpoint-liveness checks per edge.
	bond := s.pSite >= 1 && s.dead == nil
	for {
		me := 0
		if len(queues[1])-heads[1] < len(queues[0])-heads[0] {
			me = 1
		}
		if heads[me] == len(queues[me]) {
			return false, true, nil
		}
		// Each side's head counts the vertices it has expanded.
		if uint64(heads[0]+heads[1]) == maxExpansions {
			return false, false, nil
		}
		x := queues[me][heads[me]]
		heads[me]++
		tag := graph.Vertex(me)
		d := g.Degree(x)
		for i := 0; i < d; i++ {
			w := g.Neighbor(x, i)
			wTag, seen := side.Get(w)
			if seen && wTag == tag {
				continue
			}
			id, ok := g.EdgeID(x, w)
			if !ok {
				continue
			}
			if bond {
				if !s.OpenID(id) {
					continue
				}
			} else if !s.OpenEdgeID(x, w, id) {
				continue
			}
			if seen { // from the other side: this open edge joins the clusters
				return true, true, nil
			}
			side.Set(w, tag)
			queues[me] = append(queues[me], w)
		}
	}
}
