package sim_test

// The reference flood: the discrete-event engine, the network on top of
// it and the flooding/echo protocol that DistributedBFS replaced, kept
// as the oracle the round-by-round flood must match field for field.
// Every message is a closure on a time-ordered heap, and every newly
// visited vertex carries a copy of its whole path. With a constant delay
// the heap pops messages in exactly the order they were sent, which is
// what lets a FIFO per round reproduce it.

import (
	"container/heap"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"faultroute/api"
	"faultroute/internal/graph"
	"faultroute/internal/percolation"
	"faultroute/internal/rng"
	"faultroute/internal/sim"
)

// event is a scheduled callback.
type event struct {
	at  float64
	seq uint64 // tie-break: FIFO among same-time events, for determinism
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// engine is a minimal deterministic event loop. The zero value is ready
// to use.
type engine struct {
	pq      eventHeap
	now     float64
	seq     uint64
	stopped bool
}

// Now returns the current simulation time.
func (e *engine) Now() float64 { return e.now }

// Schedule enqueues fn to run after delay (>= 0) simulation time units.
// Same-time events run in scheduling order.
func (e *engine) Schedule(delay float64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	heap.Push(&e.pq, event{at: e.now + delay, seq: e.seq, fn: fn})
	e.seq++
}

// Stop makes Run return before processing further events.
func (e *engine) Stop() { e.stopped = true }

// Run processes events in time order until the queue drains, Stop is
// called, or maxEvents (0 = unlimited) events have run. It returns the
// number of events processed.
func (e *engine) Run(maxEvents int) int {
	processed := 0
	e.stopped = false
	for len(e.pq) > 0 && !e.stopped {
		if maxEvents > 0 && processed >= maxEvents {
			break
		}
		ev := heap.Pop(&e.pq).(event)
		e.now = ev.at
		ev.fn()
		processed++
	}
	return processed
}

// Pending returns the number of queued events.
func (e *engine) Pending() int { return len(e.pq) }

// message is a payload in transit between two adjacent nodes.
type message struct {
	From    graph.Vertex
	To      graph.Vertex
	Kind    string
	Payload interface{}
}

// handler consumes messages delivered to a node.
type handler func(m message)

// network couples an engine with a percolated graph: a transmission over
// a closed (failed) link is silently lost, and every attempt is counted.
type network struct {
	eng   *engine
	s     percolation.Sample
	delay float64

	handlers map[graph.Vertex]handler
	fallback func(to graph.Vertex, m message)

	Attempts  int
	Delivered int
	Dropped   int
}

// newNetwork builds a network over the sample with the given per-hop
// delay (must be positive; 1 gives hop-synchronous "rounds").
func newNetwork(eng *engine, s percolation.Sample, delay float64) (*network, error) {
	if delay <= 0 {
		return nil, fmt.Errorf("sim: non-positive delay %v", delay)
	}
	return &network{
		eng:      eng,
		s:        s,
		delay:    delay,
		handlers: make(map[graph.Vertex]handler),
	}, nil
}

// SetHandler installs the message handler of node v, overriding the
// default handler for that node.
func (nw *network) SetHandler(v graph.Vertex, h handler) {
	nw.handlers[v] = h
}

// SetDefaultHandler installs a handler shared by every node without a
// per-node handler; it additionally receives the destination vertex.
func (nw *network) SetDefaultHandler(h func(to graph.Vertex, m message)) {
	nw.fallback = h
}

// Send attempts to transmit a message from one node to an adjacent node.
// It returns an error only for protocol bugs (non-adjacent endpoints);
// loss over a failed link is not an error, just a dropped message.
func (nw *network) Send(from, to graph.Vertex, kind string, payload interface{}) error {
	open, err := nw.s.Open(from, to)
	if err != nil {
		return fmt.Errorf("sim: send %s: %w", kind, err)
	}
	nw.Attempts++
	if !open {
		nw.Dropped++
		return nil
	}
	nw.Delivered++
	m := message{From: from, To: to, Kind: kind, Payload: payload}
	nw.eng.Schedule(nw.delay, func() {
		if h, ok := nw.handlers[to]; ok {
			h(m)
			return
		}
		if nw.fallback != nil {
			nw.fallback(to, m)
		}
	})
	return nil
}

// message kinds of the reference protocol.
const (
	kindExplore = "explore"
	kindFound   = "found"
)

// pathPayload carries the path walked so far (explore) or the full path
// back to the source (found).
type pathPayload struct {
	path []graph.Vertex
}

// referenceBFS is the event-engine flooding/echo protocol, with the
// contract of sim.DistributedBFS.
func referenceBFS(s percolation.Sample, src, dst graph.Vertex, maxEvents int) (*sim.FloodOutcome, error) {
	eng := &engine{}
	nw, err := newNetwork(eng, s, 1)
	if err != nil {
		return nil, err
	}
	g := s.Graph()
	out := &sim.FloodOutcome{}

	visited := make(map[graph.Vertex]bool)

	// forward floods EXPLORE from v to all neighbors except the one the
	// message arrived from.
	forward := func(v, except graph.Vertex, pathSoFar []graph.Vertex) error {
		deg := g.Degree(v)
		for i := 0; i < deg; i++ {
			w := g.Neighbor(v, i)
			if w == except {
				continue
			}
			if err := nw.Send(v, w, kindExplore, pathPayload{path: pathSoFar}); err != nil {
				return err
			}
		}
		return nil
	}

	var protoErr error
	nw.SetDefaultHandler(func(v graph.Vertex, m message) {
		switch m.Kind {
		case kindExplore:
			if visited[v] {
				return
			}
			visited[v] = true
			pp := m.Payload.(pathPayload)
			path := append(append([]graph.Vertex(nil), pp.path...), v)
			if v == dst {
				// Begin the echo back along the (open) discovered path.
				prev := path[len(path)-2]
				if err := nw.Send(v, prev, kindFound, pathPayload{path: path}); err != nil {
					protoErr = err
					eng.Stop()
				}
				return
			}
			if err := forward(v, m.From, path); err != nil {
				protoErr = err
				eng.Stop()
			}
		case kindFound:
			pp := m.Payload.(pathPayload)
			if v == src {
				out.Found = true
				out.Path = pp.path
				out.Time = eng.Now()
				eng.Stop()
				return
			}
			// Relay toward the source along the recorded path.
			idx := -1
			for i, x := range pp.path {
				if x == v {
					idx = i
					break
				}
			}
			if idx <= 0 {
				protoErr = fmt.Errorf("sim: found-echo lost its way at %d", v)
				eng.Stop()
				return
			}
			if err := nw.Send(v, pp.path[idx-1], kindFound, pp); err != nil {
				protoErr = err
				eng.Stop()
			}
		}
	})

	// Kick off: the source is visited and floods to all neighbors.
	visited[src] = true
	if src == dst {
		out.Found = true
		out.Path = []graph.Vertex{src}
		return out, nil
	}
	if err := forward(src, src, []graph.Vertex{src}); err != nil {
		return nil, err
	}

	out.Events = eng.Run(maxEvents)
	if protoErr != nil {
		return nil, protoErr
	}
	if !out.Found {
		out.Time = eng.Now()
	}
	out.Attempts = nw.Attempts
	out.Delivered = nw.Delivered
	out.Dropped = nw.Dropped
	return out, nil
}

// phantom reports one extra neighbor of vertex at, a vertex far that the
// wrapped graph has no edge to, so every flood that reaches at sends
// over a link that does not exist.
type phantom struct {
	graph.Graph
	at, far graph.Vertex
}

func (p phantom) Degree(v graph.Vertex) int {
	if v == p.at {
		return p.Graph.Degree(v) + 1
	}
	return p.Graph.Degree(v)
}

func (p phantom) Neighbor(v graph.Vertex, i int) graph.Vertex {
	if v == p.at && i == p.Graph.Degree(v) {
		return p.far
	}
	return p.Graph.Neighbor(v, i)
}

// floodCase is one graph and source/destination pair of the equality
// test.
type floodCase struct {
	name     string
	g        graph.Graph
	src, dst graph.Vertex
}

// floodCases returns every sample family's instances (source 0 to the
// last vertex, and a seeded random pair), E13's three instances with
// E13's pairs, and phantom-edge graphs whose flood must fail.
func floodCases(t *testing.T) []floodCase {
	t.Helper()
	var cases []floodCase
	str := rng.NewStream(13)
	for _, gs := range api.SampleGraphSpecs() {
		g, err := api.NewGraph(gs)
		if err != nil {
			t.Fatal(err)
		}
		n := g.Order()
		name := gs.Family + "/" + g.Name()
		cases = append(cases,
			floodCase{name, g, 0, graph.Vertex(n - 1)},
			floodCase{name + "/random", g, graph.Vertex(str.Uint64n(n)), graph.Vertex(str.Uint64n(n))})
	}
	mesh := graph.MustMesh(2, 20)
	cube := graph.MustHypercube(9)
	tor := graph.MustTorus(2, 15)
	ring := graph.MustRing(6)
	return append(cases,
		floodCase{"E13/mesh", mesh, 0, graph.Vertex(mesh.Order() - 1)},
		floodCase{"E13/hypercube", cube, 0, cube.Antipode(0)},
		floodCase{"E13/torus", tor, 0, graph.Vertex(tor.Order()/2 + uint64(tor.Side())/2)},
		floodCase{"phantom at source", phantom{ring, 0, 3}, 0, 2},
		floodCase{"phantom mid-flood", phantom{ring, 2, 5}, 0, 3},
	)
}

// TestDistributedBFSMatchesReference checks the round-by-round flood
// against the event-engine reference: all seven outcome fields and the
// error must agree on every case, seed, sample and message cap. The
// samples are bond percolation at five p, site percolation, and a
// regional outage mask, where Open also checks endpoint liveness. A cap
// of 1 or 7 stops runs mid-round; 100 stops larger floods before the
// echo is home, and 0 runs them to the end, where FOUND reaching the
// source stops the run mid-round.
func TestDistributedBFSMatchesReference(t *testing.T) {
	region := sim.Fault{Model: sim.FailRegion, Radius: 1, Count: 2, Seed: 5}
	errs, founds, capped := 0, 0, 0
	for _, c := range floodCases(t) {
		for seed := uint64(1); seed <= 10; seed++ {
			mask := region.Sample(c.g, seed)
			samples := map[string]percolation.Sample{
				"site-bond": percolation.NewSiteBond(c.g, 0.8, 0.75, seed),
				"region":    percolation.New(c.g, 0.7, seed).WithDead(mask),
			}
			for _, p := range []float64{0, 0.3, 0.5, 0.6, 1} {
				samples[fmt.Sprintf("p=%v", p)] = percolation.New(c.g, p, seed)
			}
			for kind, s := range samples {
				for _, maxEvents := range []int{0, 1, 7, 100} {
					want, wantErr := referenceBFS(s, c.src, c.dst, maxEvents)
					got, gotErr := sim.DistributedBFS(s, c.src, c.dst, maxEvents)
					if (wantErr == nil) != (gotErr == nil) ||
						wantErr != nil && wantErr.Error() != gotErr.Error() {
						t.Fatalf("%s %s seed=%d maxEvents=%d: error %v, reference %v",
							c.name, kind, seed, maxEvents, gotErr, wantErr)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s seed=%d maxEvents=%d:\n got %+v\nwant %+v",
							c.name, kind, seed, maxEvents, got, want)
					}
					switch {
					case wantErr != nil:
						if !errors.Is(gotErr, percolation.ErrNotEdge) {
							t.Fatalf("%s: error %v does not wrap ErrNotEdge", c.name, gotErr)
						}
						errs++
					case want.Found:
						founds++
					case maxEvents > 0 && want.Events == maxEvents:
						capped++
					}
				}
			}
			mask.Release()
		}
	}
	// Every way a run can end must have been taken.
	if errs == 0 || founds == 0 || capped == 0 {
		t.Fatalf("errors %d, found %d, capped %d: a branch went unexercised", errs, founds, capped)
	}
}

// The engine and network tests below pin the reference's own semantics:
// the equality tests above lean on FIFO order among ties and on Stop and
// maxEvents ending a run exactly where it should.

func TestEngineOrdersEventsByTime(t *testing.T) {
	var order []int
	e := &engine{}
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	if n := e.Run(0); n != 3 {
		t.Fatalf("processed %d events", n)
	}
	for i, want := range []int{1, 2, 3} {
		if order[i] != want {
			t.Fatalf("order = %v", order)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestEngineFIFOAmongTies(t *testing.T) {
	var order []int
	e := &engine{}
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1, func() { order = append(order, i) })
	}
	e.Run(0)
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events out of order: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := &engine{}
	hits := 0
	e.Schedule(1, func() {
		hits++
		e.Schedule(1, func() { hits++ })
	})
	e.Run(0)
	if hits != 2 {
		t.Fatalf("hits = %d", hits)
	}
	if e.Now() != 2 {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestEngineStopAndMaxEvents(t *testing.T) {
	e := &engine{}
	hits := 0
	for i := 0; i < 10; i++ {
		e.Schedule(float64(i), func() { hits++ })
	}
	if n := e.Run(3); n != 3 || hits != 3 {
		t.Fatalf("maxEvents run processed %d/%d", n, hits)
	}
	e2 := &engine{}
	e2.Schedule(0, func() { e2.Stop() })
	e2.Schedule(1, func() { t.Fatal("ran past Stop") })
	e2.Run(0)
	if e2.Pending() != 1 {
		t.Fatalf("pending = %d", e2.Pending())
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := &engine{}
	ran := false
	e.Schedule(-5, func() { ran = true })
	e.Run(0)
	if !ran || e.Now() != 0 {
		t.Fatalf("ran=%v now=%v", ran, e.Now())
	}
}

func TestNetworkRejectsNonPositiveDelay(t *testing.T) {
	s := percolation.New(graph.MustRing(4), 1, 1)
	if _, err := newNetwork(&engine{}, s, 0); err == nil {
		t.Fatal("zero delay accepted")
	}
}

func TestNetworkSendOverOpenAndClosed(t *testing.T) {
	g := graph.MustRing(4)
	e := &engine{}
	nw, err := newNetwork(e, percolation.New(g, 1, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	nw.SetHandler(1, func(m message) { got++ })
	if err := nw.Send(0, 1, "x", nil); err != nil {
		t.Fatal(err)
	}
	e.Run(0)
	if got != 1 || nw.Delivered != 1 || nw.Dropped != 0 {
		t.Fatalf("delivery stats: got=%d delivered=%d dropped=%d", got, nw.Delivered, nw.Dropped)
	}

	closed, err := newNetwork(&engine{}, percolation.New(g, 0, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := closed.Send(0, 1, "x", nil); err != nil {
		t.Fatal(err)
	}
	if closed.Dropped != 1 || closed.Attempts != 1 {
		t.Fatalf("drop stats: %+v", closed)
	}
}

func TestNetworkSendNonAdjacentErrors(t *testing.T) {
	nw, err := newNetwork(&engine{}, percolation.New(graph.MustRing(6), 1, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Send(0, 3, "x", nil); err == nil {
		t.Fatal("non-adjacent send accepted")
	}
}
