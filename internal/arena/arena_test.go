package arena

import (
	"testing"

	"faultroute/internal/graph"
)

// orders exercises both the dense (order <= DenseLimit) and the sparse
// open-addressed representation with one test body.
var orders = []uint64{1 << 10, DenseLimit + 1}

func TestVSetAddHasLen(t *testing.T) {
	for _, order := range orders {
		var s VSet
		s.Reset(order)
		vs := []graph.Vertex{0, 1, 63, graph.Vertex(order - 1), 17, 0}
		for _, v := range vs {
			s.Add(v)
		}
		if s.Len() != 5 { // 0 inserted twice
			t.Fatalf("order %d: Len = %d, want 5", order, s.Len())
		}
		for _, v := range vs {
			if !s.Has(v) {
				t.Fatalf("order %d: missing %d", order, v)
			}
		}
		if s.Has(2) || s.Has(graph.Vertex(order-2)) {
			t.Fatalf("order %d: phantom member", order)
		}
	}
}

func TestVSetResetForgetsEverything(t *testing.T) {
	for _, order := range orders {
		var s VSet
		s.Reset(order)
		for v := graph.Vertex(0); v < 100; v++ {
			s.Add(v)
		}
		s.Reset(order)
		if s.Len() != 0 {
			t.Fatalf("order %d: Len = %d after reset", order, s.Len())
		}
		for v := graph.Vertex(0); v < 100; v++ {
			if s.Has(v) {
				t.Fatalf("order %d: %d survived reset", order, v)
			}
		}
	}
}

func TestVSetSparseGrowth(t *testing.T) {
	var s VSet
	s.Reset(DenseLimit + 1)
	const n = 10_000 // far beyond minSparse: forces many rehashes
	for i := 0; i < n; i++ {
		s.Add(graph.Vertex(i * 7919))
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	for i := 0; i < n; i++ {
		if !s.Has(graph.Vertex(i * 7919)) {
			t.Fatalf("lost %d after growth", i*7919)
		}
	}
}

func TestVMapGetSetOverwrite(t *testing.T) {
	for _, order := range orders {
		var m VMap
		m.Reset(order)
		m.Set(5, 7)
		m.Set(5, 9)
		m.Set(graph.Vertex(order-1), 3)
		if m.Len() != 2 {
			t.Fatalf("order %d: Len = %d, want 2", order, m.Len())
		}
		if v, ok := m.Get(5); !ok || v != 9 {
			t.Fatalf("order %d: Get(5) = %d, %v", order, v, ok)
		}
		if v, ok := m.Get(graph.Vertex(order - 1)); !ok || v != 3 {
			t.Fatalf("order %d: Get(last) = %d, %v", order, v, ok)
		}
		if _, ok := m.Get(6); ok {
			t.Fatalf("order %d: phantom entry", order)
		}
	}
}

func TestVMapMatchesGoMap(t *testing.T) {
	for _, order := range orders {
		var m VMap
		m.Reset(order)
		ref := map[graph.Vertex]graph.Vertex{}
		// A deterministic mixed workload of inserts and overwrites.
		for i := 0; i < 5000; i++ {
			k := graph.Vertex(uint64(i*i*31+i) % order)
			v := graph.Vertex(i)
			m.Set(k, v)
			ref[k] = v
		}
		if m.Len() != len(ref) {
			t.Fatalf("order %d: Len = %d, want %d", order, m.Len(), len(ref))
		}
		for k, want := range ref {
			if got, ok := m.Get(k); !ok || got != want {
				t.Fatalf("order %d: Get(%d) = %d, %v; want %d", order, k, got, ok, want)
			}
		}
	}
}

func TestVMapModeSwitch(t *testing.T) {
	// One structure reused across graphs of very different orders must
	// stay correct through dense -> sparse -> dense transitions.
	var m VMap
	m.Reset(100)
	m.Set(3, 4)
	m.Reset(DenseLimit + 5)
	if m.Has(3) {
		t.Fatal("dense entry visible after switch to sparse")
	}
	m.Set(3, 8)
	m.Reset(100)
	if m.Has(3) {
		t.Fatal("sparse entry visible after switch to dense")
	}
	if v, ok := m.Get(3); ok {
		t.Fatalf("Get(3) = %d after reset", v)
	}
}

func TestEpochWraparound(t *testing.T) {
	// Force the uint32 epoch to wrap and check stale stamps cannot
	// alias a live epoch.
	var s VSet
	s.Reset(64)
	s.Add(7)
	s.epoch = ^uint32(0) // next Reset wraps to 0 and hard-clears
	s.Reset(64)
	if s.Has(7) {
		t.Fatal("entry survived epoch wraparound")
	}
	s.Add(9)
	if !s.Has(9) || s.Has(7) {
		t.Fatal("set corrupt after wraparound")
	}

	var m EdgeMemo
	m.Reset()
	slot, _, _ := m.Find(42)
	m.Insert(slot, 42, true)
	m.epoch = ^uint32(0)
	m.Reset()
	if _, seen := m.Lookup(42); seen {
		t.Fatal("memo entry survived epoch wraparound")
	}
	if _, _, seen := m.Find(42); seen {
		t.Fatal("memo entry found after epoch wraparound")
	}
}

// memoize is the probe layer's use of the memo: Find, then Insert when
// the edge is new. It returns the state the memo holds afterwards.
func memoize(m *EdgeMemo, id uint64, isOpen bool) (open, seen bool) {
	slot, open, seen := m.Find(id)
	if !seen {
		m.Insert(slot, id, isOpen)
		open = isOpen
	}
	return open, seen
}

func TestEdgeMemo(t *testing.T) {
	var m EdgeMemo
	m.Reset()
	if _, seen := m.Lookup(0); seen {
		t.Fatal("empty memo knows edge 0")
	}
	memoize(&m, 0, true) // edge ID 0 is a real ID (hypercube edge {0, 1})
	memoize(&m, 1, false)
	if open, seen := memoize(&m, 0, false); !seen || !open {
		t.Fatalf("repeat Find(0) = %v, %v; want the first state, seen", open, seen)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	if open, seen := m.Lookup(0); !seen || !open {
		t.Fatalf("Lookup(0) = %v, %v", open, seen)
	}
	if open, seen := m.Lookup(1); !seen || open {
		t.Fatalf("Lookup(1) = %v, %v", open, seen)
	}
	// Growth keeps every entry.
	for i := uint64(0); i < 4096; i++ {
		memoize(&m, i*977, i%3 == 0)
	}
	for i := uint64(0); i < 4096; i++ {
		if open, seen := m.Lookup(i * 977); !seen || open != (i%3 == 0) {
			t.Fatalf("Lookup(%d) = %v, %v after growth", i*977, open, seen)
		}
	}
}

// TestEdgeMemoFindInsertMatchesMap runs random edge IDs, with repeats,
// through Find and Insert against a map[uint64]bool: from the 64-slot
// initial table through many doublings, and across Resets. A new ID
// drawn at every third step is found but not inserted, which must leave
// Len and Lookup unchanged.
func TestEdgeMemoFindInsertMatchesMap(t *testing.T) {
	var m EdgeMemo
	x := uint64(1)
	next := func() uint64 { // xorshift64: a fixed, repeatable sequence
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for round, n := range []int{10, 100, 5000, 40, 20000} {
		m.Reset()
		ref := map[uint64]bool{}
		for i := 0; i < n; i++ {
			// IDs drawn from a range 1.5n wide repeat often.
			id := next() % uint64(n+n/2+1)
			isOpen := next()&1 == 1
			slot, open, seen := m.Find(id)
			want, ok := ref[id]
			if seen != ok || (ok && open != want) {
				t.Fatalf("round %d: Find(%d) = %v, %v; map has %v, %v", round, id, open, seen, want, ok)
			}
			if seen {
				continue
			}
			if i%3 == 0 {
				if m.Len() != len(ref) {
					t.Fatalf("round %d: Len = %d after a bare Find, want %d", round, m.Len(), len(ref))
				}
				if _, seen := m.Lookup(id); seen {
					t.Fatalf("round %d: bare Find(%d) made it known", round, id)
				}
				continue
			}
			m.Insert(slot, id, isOpen)
			ref[id] = isOpen
		}
		if m.Len() != len(ref) {
			t.Fatalf("round %d: Len = %d, want %d", round, m.Len(), len(ref))
		}
		for id, want := range ref {
			if open, seen := m.Lookup(id); !seen || open != want {
				t.Fatalf("round %d: Lookup(%d) = %v, %v; want %v", round, id, open, seen, want)
			}
		}
		for id := uint64(0); id < uint64(n+n/2+1); id++ {
			if _, ok := ref[id]; ok {
				continue
			}
			if _, seen := m.Lookup(id); seen {
				t.Fatalf("round %d: phantom edge %d", round, id)
			}
		}
	}
	if len(m.keys) <= minSparse {
		t.Fatalf("table never grew past %d slots", len(m.keys))
	}
}

func TestArenaRecyclesStructures(t *testing.T) {
	a := Acquire()
	defer a.Release()
	m1 := a.Map(128)
	m1.Set(1, 2)
	a.PutMap(m1)
	m2 := a.Map(128)
	if m2 != m1 {
		t.Fatal("free list did not recycle the map")
	}
	if m2.Len() != 0 || m2.Has(1) {
		t.Fatal("recycled map not reset")
	}

	q1 := a.Vertices()
	q1 = append(q1, 1, 2, 3)
	a.PutVertices(q1)
	q2 := a.Vertices()
	if len(q2) != 0 || cap(q2) == 0 {
		t.Fatalf("recycled buffer len=%d cap=%d", len(q2), cap(q2))
	}
}

func TestZeroValueReadsAreEmptyNotPanics(t *testing.T) {
	// Pre-arena code used nil maps, whose reads safely miss; the
	// structures must preserve that for never-reset zero values (e.g. a
	// zero-valued struct embedding one, queried before its first Reset).
	var s VSet
	if s.Has(3) {
		t.Fatal("zero VSet has a member")
	}
	var m VMap
	if _, ok := m.Get(3); ok || m.Has(3) {
		t.Fatal("zero VMap has an entry")
	}
	var e EdgeMemo
	if _, seen := e.Lookup(3); seen {
		t.Fatal("zero EdgeMemo knows an edge")
	}
}

func TestArenaPutNilIsSafe(t *testing.T) {
	a := Acquire()
	defer a.Release()
	a.PutSet(nil)
	a.PutMap(nil)
	a.PutMemo(nil)
	a.PutVertices(nil)
	a.PutInts(nil)
	if got := a.Map(8); got == nil {
		t.Fatal("arena broken after nil puts")
	}
}
