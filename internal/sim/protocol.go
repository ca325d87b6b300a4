package sim

import (
	"fmt"

	"faultroute/internal/arena"
	"faultroute/internal/graph"
	"faultroute/internal/percolation"
)

// FloodOutcome reports one run of the distributed flooding/echo routing
// protocol.
type FloodOutcome struct {
	// Found is true when the source received an acknowledgement carrying
	// a full path to the destination.
	Found bool
	// Path is the discovered open path (source..destination) when Found.
	Path []graph.Vertex
	// Attempts counts link transmission attempts, the message-complexity
	// analogue of probe complexity (lost transmissions included).
	Attempts int
	// Delivered and Dropped split Attempts by link state.
	Delivered int
	Dropped   int
	// Time is the round in which the last handled message was delivered:
	// the round in which the source learned the path, or in which the
	// flood died out or hit its message cap (0 when nothing was
	// delivered). A message sent in round t is delivered in round t+1.
	Time float64
	// Events is the number of delivered messages handled, including the
	// one that ended the run.
	Events int
}

// message is a transmission in flight over an open link: an EXPLORE,
// or a FOUND echo heading back to the source.
type message struct {
	from, to graph.Vertex
	found    bool
}

// flood is the state of one DistributedBFS run.
type flood struct {
	s    percolation.Sample
	g    graph.Graph
	out  *FloodOutcome
	next []message // delivered next round, in send order
}

// send attempts one transmission. A message over a failed link is
// counted and lost — the sender cannot tell it from a slow one. It
// errs only for non-adjacent endpoints, a protocol bug.
func (f *flood) send(from, to graph.Vertex, found bool) error {
	open, err := f.s.Open(from, to)
	if err != nil {
		kind := "explore"
		if found {
			kind = "found"
		}
		return fmt.Errorf("sim: send %s: %w", kind, err)
	}
	f.out.Attempts++
	if !open {
		f.out.Dropped++
		return nil
	}
	f.out.Delivered++
	f.next = append(f.next, message{from: from, to: to, found: found})
	return nil
}

// explore floods EXPLORE from v to all neighbors except the one the
// flood arrived from.
func (f *flood) explore(v, except graph.Vertex) error {
	for i, deg := 0, f.g.Degree(v); i < deg; i++ {
		if w := f.g.Neighbor(v, i); w != except {
			if err := f.send(v, w, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// DistributedBFS runs the natural distributed routing protocol on the
// percolated graph: the source floods EXPLORE messages; each node
// forwards the first EXPLORE it receives to its other neighbors; the
// destination echoes a FOUND back along the path the flood took to it.
// The protocol is exactly a local routing algorithm in the sense of
// Definition 1 — a node only attempts links it sits on, and only after a
// message (an established open path) has reached it.
//
// The network is synchronous: round t delivers, in send order, the
// messages sent in round t-1, and the run ends the moment FOUND reaches
// the source. Each node remembers the neighbor its first EXPLORE came
// from, so the echo and the reported path follow those parent pointers.
//
// maxEvents caps the delivered messages handled (0 = unlimited); src
// and dst must be vertices of the sample's graph. The outcome's
// Attempts is comparable to BFSLocal's probe count on the same sample:
// each cluster edge is attempted at most twice (once per endpoint) and
// each boundary edge at most twice.
func DistributedBFS(s percolation.Sample, src, dst graph.Vertex, maxEvents int) (*FloodOutcome, error) {
	g := s.Graph()
	if n := g.Order(); uint64(src) >= n || uint64(dst) >= n {
		return nil, fmt.Errorf("sim: endpoints (%d, %d) out of range [0, %d)", src, dst, n)
	}
	out := &FloodOutcome{}
	if src == dst {
		out.Found = true
		out.Path = []graph.Vertex{src}
		return out, nil
	}
	a := arena.Acquire()
	defer a.Release()
	parent := a.Map(g.Order())
	defer a.PutMap(parent)
	parent.Set(src, src)

	f := flood{s: s, g: g, out: out, next: make([]message, 0, 64)}
	if err := f.explore(src, src); err != nil {
		return nil, err
	}
	cur := make([]message, 0, 64)
	for round := 1; len(f.next) > 0; round++ {
		cur, f.next = f.next, cur[:0]
		for _, m := range cur {
			if maxEvents > 0 && out.Events >= maxEvents {
				return out, nil
			}
			out.Events++
			out.Time = float64(round)
			var err error
			switch {
			case m.found && m.to == src:
				out.Found = true
				out.Path = parentPath(parent, src, dst)
				return out, nil
			case m.found:
				up, _ := parent.Get(m.to)
				err = f.send(m.to, up, true)
			case parent.Has(m.to):
				// Not the first EXPLORE here: the node ignores it.
			default:
				parent.Set(m.to, m.from)
				if m.to == dst {
					err = f.send(dst, m.from, true)
				} else {
					err = f.explore(m.to, m.from)
				}
			}
			if err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// parentPath follows the parent pointers back from dst and returns the
// path src..dst.
func parentPath(parent *arena.VMap, src, dst graph.Vertex) []graph.Vertex {
	n := 1
	for v := dst; v != src; v, _ = parent.Get(v) {
		n++
	}
	path := make([]graph.Vertex, n)
	for v, i := dst, n-1; i >= 0; i-- {
		path[i] = v
		v, _ = parent.Get(v)
	}
	return path
}
