package probe

import (
	"errors"
	"fmt"

	"faultroute/internal/arena"
	"faultroute/internal/graph"
	"faultroute/internal/percolation"
)

// Sentinel errors for probe outcomes.
var (
	// ErrBudget reports that the prober's probe budget is exhausted.
	ErrBudget = errors.New("probe: budget exceeded")
	// ErrNotLocal reports a probe that violates Definition 1's locality
	// rule.
	ErrNotLocal = errors.New("probe: edge not incident to the reached set")
	// ErrNotEdge reports a probe of a vertex pair that is not an edge of
	// the base graph.
	ErrNotEdge = errors.New("probe: not an edge of the base graph")
)

// Prober is the query interface routing algorithms run against.
type Prober interface {
	// Probe reveals whether the edge {u, v} is open. Distinct-edge
	// probes count against the budget; repeats are free and return the
	// memoized answer.
	Probe(u, v graph.Vertex) (open bool, err error)

	// Graph returns the base graph (its topology is public knowledge;
	// only edge states are hidden).
	Graph() graph.Graph

	// Count returns the number of distinct edges probed so far — the
	// routing complexity comp(A) of Definition 2 when the router stops.
	Count() int

	// Budget returns the maximum allowed Count, or 0 for unlimited.
	Budget() int
}

// ArenaProvider is the optional interface of probers that carry a
// per-trial scratch arena. Routers borrow their search tables (parent
// maps, queues) from it so one trial's entire bookkeeping is recycled
// together; probers without one make routers fall back to a
// pool-acquired arena of their own.
type ArenaProvider interface {
	Arena() *arena.Arena
}

// counter is the shared memoizing, budgeted probe core. Its memo is
// borrowed from a pooled arena; Release recycles it for the next trial.
type counter struct {
	sample percolation.Sample
	known  *arena.EdgeMemo // edge ID -> open?
	arena  *arena.Arena
	budget int // 0 = unlimited
	calls  int // raw Probe invocations, repeats included
}

// newCounter borrows a memo sized by the graph's edge-ID bound, when it
// declares one: a flat bit table for bounds up to
// arena.DenseEdgeLimit, an open-addressed table otherwise.
func newCounter(s percolation.Sample, budget int) counter {
	a := arena.Acquire()
	var bound uint64
	if es, ok := s.Graph().(graph.EdgeSpace); ok {
		bound = es.EdgeIDBound()
	}
	return counter{sample: s, known: a.Memo(bound), arena: a, budget: budget}
}

// probeEdge reveals the edge {u, v} with canonical id, charging the
// budget only for new edges. Endpoints are needed because under
// site+bond percolation edge state depends on endpoint liveness.
func (c *counter) probeEdge(u, v graph.Vertex, id uint64) (bool, error) {
	c.calls++
	slot, open, seen := c.known.Find(id)
	if seen {
		return open, nil
	}
	if c.budget > 0 && c.known.Len() >= c.budget {
		return false, ErrBudget
	}
	open = c.sample.OpenEdgeID(u, v, id)
	c.known.Insert(slot, id, open)
	return open, nil
}

// Count returns distinct probed edges.
func (c *counter) Count() int { return c.known.Len() }

// Calls returns raw Probe invocations including memoized repeats.
func (c *counter) Calls() int { return c.calls }

// Budget returns the probe budget (0 = unlimited).
func (c *counter) Budget() int { return c.budget }

// Graph returns the base graph.
func (c *counter) Graph() graph.Graph { return c.sample.Graph() }

// Known reports the memoized state of an edge without probing it.
func (c *counter) Known(id uint64) (open, seen bool) {
	return c.known.Lookup(id)
}

// Arena implements ArenaProvider: routers share the prober's per-trial
// arena so all trial state is recycled together.
func (c *counter) Arena() *arena.Arena { return c.arena }

// release returns the memo and the arena to the shared pool. The
// counter must not be used afterwards.
func (c *counter) release() {
	if c.arena == nil {
		return
	}
	c.arena.PutMemo(c.known)
	c.known = nil
	c.arena.Release()
	c.arena = nil
}

// Oracle is a prober that may examine any edge of the base graph —
// the Section 5 "oracle routing" model.
type Oracle struct {
	counter
}

// NewOracle returns an oracle prober over the sample with the given
// distinct-edge budget (0 = unlimited).
func NewOracle(s percolation.Sample, budget int) *Oracle {
	return &Oracle{counter: newCounter(s, budget)}
}

// Release recycles the prober's pooled trial state. Optional — skipped
// probers are simply garbage collected — but trial loops that release
// reuse one warm memo across thousands of runs. The prober must not be
// used after Release.
func (o *Oracle) Release() { o.release() }

// Probe implements Prober.
func (o *Oracle) Probe(u, v graph.Vertex) (bool, error) {
	id, ok := o.sample.Graph().EdgeID(u, v)
	if !ok {
		return false, fmt.Errorf("%w: {%d, %d}", ErrNotEdge, u, v)
	}
	return o.probeEdge(u, v, id)
}

// Local is a prober enforcing Definition 1: it tracks the set of vertices
// reached from the source via probed-open edges and rejects probes not
// incident to that set.
type Local struct {
	counter
	source  graph.Vertex
	reached *arena.VSet
}

// NewLocal returns a local prober rooted at source with the given
// distinct-edge budget (0 = unlimited).
//
// An invariant keeps the implementation simple: because every accepted
// probe touches the reached set and an open probe immediately adds its
// far endpoint, every probed-open edge always has both endpoints
// reached — the reached set is exactly the open cluster of the source
// within the probed subgraph.
func NewLocal(s percolation.Sample, source graph.Vertex, budget int) *Local {
	l := &Local{counter: newCounter(s, budget), source: source}
	l.reached = l.arena.Set(s.Graph().Order())
	l.reached.Add(source)
	return l
}

// Release recycles the prober's pooled trial state, under the Oracle
// Release contract.
func (l *Local) Release() {
	if l.arena != nil {
		l.arena.PutSet(l.reached)
		l.reached = nil
	}
	l.release()
}

// Source returns the routing source the reached set grows from.
func (l *Local) Source() graph.Vertex { return l.source }

// Reached reports whether v is known to be connected to the source via
// probed-open edges.
func (l *Local) Reached(v graph.Vertex) bool { return l.reached.Has(v) }

// NumReached returns the size of the reached set.
func (l *Local) NumReached() int { return l.reached.Len() }

// Probe implements Prober, rejecting probes that do not touch the
// reached set with ErrNotLocal.
func (l *Local) Probe(u, v graph.Vertex) (bool, error) {
	id, ok := l.sample.Graph().EdgeID(u, v)
	if !ok {
		return false, fmt.Errorf("%w: {%d, %d}", ErrNotEdge, u, v)
	}
	ru, rv := l.reached.Has(u), l.reached.Has(v)
	if !ru && !rv {
		return false, fmt.Errorf("%w: {%d, %d}", ErrNotLocal, u, v)
	}
	open, err := l.probeEdge(u, v, id)
	if err != nil {
		return false, err
	}
	if open {
		if ru && !rv {
			l.reached.Add(v)
		} else if rv && !ru {
			l.reached.Add(u)
		}
	}
	return open, nil
}
