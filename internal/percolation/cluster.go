package percolation

import (
	"fmt"
	"math"

	"faultroute/internal/arena"
	"faultroute/internal/graph"
	"faultroute/internal/rng"
)

// Connected reports exactly whether u and v lie in the same open
// component. It is ConnectedLazy with no expansion budget, so it always
// decides; the answer is exactly Label's.
//
// Graphs beyond the exact-labeling cap are rejected with the same error
// as Label, so conditioning on huge implicit graphs fails exactly as
// exact labeling does.
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
				// Called directly: rng.Coin inlines, OpenID does not.
				if !rng.Coin(s.seed, id, s.p) {
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
