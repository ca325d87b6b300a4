// Package arena provides the pooled, generation-stamped scratch
// structures behind the Monte-Carlo trial hot path. Every trial of
// every experiment used to allocate a fresh probe memo
// (map[uint64]bool), fresh parent tables (map[Vertex]Vertex) and a
// fresh reached set per routing run; at thousands of trials per shard
// that map churn dominated the engine's cost. This package replaces
// those maps with flat, epoch-stamped tables that reset in O(1) and are
// recycled across trials.
//
// Two representations back each per-vertex table, chosen per use:
//
//   - dense: graph vertices are dense indices in [0, Order()) (a
//     documented invariant of internal/graph), so for graphs up to
//     DenseLimit vertices a table is a flat array indexed by vertex,
//     with a uint32 generation stamp per slot. Clearing is one epoch
//     increment; a slot is live iff its stamp equals the current epoch.
//     A dense VMap packs stamp and value into one uint64 per vertex:
//     the stamp in the low 32 bits, the value in the high 32.
//   - sparse: graphs too large to materialize Order()-sized arrays
//     (implicit topologies with 2^n vertices) fall back to an
//     open-addressed table sized to the visited set, with the same
//     epoch-stamp trick. Insert-only within an epoch, so linear
//     probing needs no tombstones: a stale stamp terminates lookups
//     exactly like an empty slot.
//
// The probe memo (EdgeMemo) is dense too when the graph declares an
// exclusive bound on its edge IDs (graph.EdgeSpace) of at most
// DenseEdgeLimit: one uint64 then covers 16 consecutive IDs, a uint32
// stamp in its low half and a seen/open bit pair per ID above it, so
// K_400's 160,000 IDs take 78 KiB whatever fraction a route probes.
// Without a bound, or above the limit (H_17 and larger), the memo is
// open-addressed and grows by doubling with the probed set.
//
// An Arena bundles free lists of these structures plus reusable vertex
// and int buffers. Arenas are recycled through a package-level
// sync.Pool — Acquire in a trial, Release when it ends — which gives
// each worker of the internal/runner pool its own warm arena without
// threading any state through the scheduler (sync.Pool caches per-P),
// keeping runner dependency-free and scheduling-independent.
//
// Pooled tables keep the largest size any borrower grew them to, until
// a GC empties the pool. So the tables must stay small: less garbage
// means fewer collections, and every table then lives for longer at its
// largest size. That is why the hot tables are compact: 8 bytes per
// vertex for a dense VMap (not 12) and 1 bit pair per edge ID for a
// dense memo (not a doubling hash table of 13-byte slots).
//
// Nothing here affects results: the structures answer exactly the
// queries the maps answered, in the same iteration-free access
// patterns, so every output stays byte-identical to the map-based
// engine at any worker count.
//
// An Arena (and every structure borrowed from it) is NOT safe for
// concurrent use; use one per goroutine.
package arena

import (
	"sync"

	"faultroute/internal/graph"
)

const (
	// DenseLimit is the largest graph order for which per-vertex
	// tables are materialized as Order()-sized flat arrays (at most
	// 32 MiB per VMap). Larger graphs use open-addressed tables sized
	// to the visited set, which is what bounds memory for implicit
	// graphs with 2^n vertices. Every value a dense VMap stores is
	// below 2^32: vertices and indices of graphs this small.
	DenseLimit = 1 << 22

	// DenseEdgeLimit is the largest edge-ID bound for which an
	// EdgeMemo is a flat bit table (at most 512 KiB). Above it, or
	// with no bound, the memo is open-addressed.
	DenseEdgeLimit = 1 << 20

	// minSparse is the initial open-addressed table size (power of
	// two).
	minSparse = 64
)

// hashIdx maps a key to a slot index in a power-of-two table of size
// mask+1. Keys are structured (vertex indices, canonical edge IDs), so
// a full-avalanche finalizer (SplitMix64's) keeps probe chains short.
func hashIdx(key, mask uint64) uint64 {
	key ^= key >> 30
	key *= 0xbf58476d1ce4e5b9
	key ^= key >> 27
	key *= 0x94d049bb133111eb
	key ^= key >> 31
	return key & mask
}

// bumpEpoch advances an epoch counter. It reports true on uint32
// wraparound, after which the caller must hard-clear every stamp it
// keeps so stale stamps can never alias a live epoch. Epoch 0 is
// reserved for "never stamped".
func bumpEpoch(epoch *uint32) (wrapped bool) {
	*epoch++
	if *epoch != 0 {
		return false
	}
	*epoch = 1
	return true
}

// VSet is a reusable set of vertices with O(1) clearing.
type VSet struct {
	epoch uint32
	n     int
	dense bool

	dstamp []uint32 // dense: stamp per vertex

	skeys  []graph.Vertex // sparse: open-addressed keys
	sstamp []uint32
}

// Reset empties the set and sizes it for a graph with the given order.
// It must be called before first use; it is O(1) except when the
// backing arrays need to grow (or once per 2^32 resets).
func (s *VSet) Reset(order uint64) {
	s.n = 0
	s.dense = order <= DenseLimit
	if s.dense && uint64(len(s.dstamp)) < order {
		s.dstamp = make([]uint32, order)
	}
	if !s.dense && s.skeys == nil {
		s.skeys = make([]graph.Vertex, minSparse)
		s.sstamp = make([]uint32, minSparse)
	}
	if bumpEpoch(&s.epoch) {
		clear(s.dstamp)
		clear(s.sstamp)
	}
}

// Len returns the number of members.
func (s *VSet) Len() int { return s.n }

// Has reports membership. A never-reset zero value contains nothing.
func (s *VSet) Has(v graph.Vertex) bool {
	if s.dense {
		return s.dstamp[v] == s.epoch
	}
	if len(s.skeys) == 0 {
		return false
	}
	mask := uint64(len(s.skeys) - 1)
	for i := hashIdx(uint64(v), mask); ; i = (i + 1) & mask {
		if s.sstamp[i] != s.epoch {
			return false
		}
		if s.skeys[i] == v {
			return true
		}
	}
}

// Add inserts v.
func (s *VSet) Add(v graph.Vertex) {
	if s.dense {
		if s.dstamp[v] != s.epoch {
			s.dstamp[v] = s.epoch
			s.n++
		}
		return
	}
	if 4*(s.n+1) > 3*len(s.skeys) {
		s.grow()
	}
	mask := uint64(len(s.skeys) - 1)
	i := hashIdx(uint64(v), mask)
	for s.sstamp[i] == s.epoch && s.skeys[i] != v {
		i = (i + 1) & mask
	}
	if s.sstamp[i] != s.epoch {
		s.sstamp[i] = s.epoch
		s.skeys[i] = v
		s.n++
	}
}

func (s *VSet) grow() {
	keys := make([]graph.Vertex, 2*len(s.skeys))
	stamp := make([]uint32, 2*len(s.skeys))
	mask := uint64(len(keys) - 1)
	for j, st := range s.sstamp {
		if st != s.epoch {
			continue
		}
		i := hashIdx(uint64(s.skeys[j]), mask)
		for stamp[i] == s.epoch {
			i = (i + 1) & mask
		}
		keys[i], stamp[i] = s.skeys[j], s.epoch
	}
	s.skeys, s.sstamp = keys, stamp
}

// VMap is a reusable vertex-keyed map with O(1) clearing. Values are
// graph.Vertex; callers storing small integers (waypoint indices, BFS
// distances, side tags) cast through graph.Vertex. A dense map holds
// values below 2^32 only, which covers every vertex and index of a
// graph of at most DenseLimit vertices; Set panics on a larger one.
type VMap struct {
	epoch uint32
	n     int
	dense bool

	// dense: one word per vertex, the stamp in the low 32 bits and
	// the value in the high 32.
	dword []uint64

	skeys  []graph.Vertex // sparse: open-addressed keys
	sstamp []uint32
	sval   []graph.Vertex
}

// Reset empties the map and sizes it for a graph with the given order,
// under the same contract as VSet.Reset.
func (m *VMap) Reset(order uint64) {
	m.n = 0
	m.dense = order <= DenseLimit
	if m.dense && uint64(len(m.dword)) < order {
		m.dword = make([]uint64, order)
	}
	if !m.dense && m.skeys == nil {
		m.skeys = make([]graph.Vertex, minSparse)
		m.sstamp = make([]uint32, minSparse)
		m.sval = make([]graph.Vertex, minSparse)
	}
	if bumpEpoch(&m.epoch) {
		clear(m.dword)
		clear(m.sstamp)
	}
}

// Len returns the number of entries.
func (m *VMap) Len() int { return m.n }

// Get returns the value stored under v. A never-reset zero value holds
// nothing (reads are safe; writes require Reset first).
func (m *VMap) Get(v graph.Vertex) (graph.Vertex, bool) {
	if m.dense {
		w := m.dword[v]
		if uint32(w) != m.epoch {
			return 0, false
		}
		return graph.Vertex(w >> 32), true
	}
	if len(m.skeys) == 0 {
		return 0, false
	}
	mask := uint64(len(m.skeys) - 1)
	for i := hashIdx(uint64(v), mask); ; i = (i + 1) & mask {
		if m.sstamp[i] != m.epoch {
			return 0, false
		}
		if m.skeys[i] == v {
			return m.sval[i], true
		}
	}
}

// Has reports whether v has an entry.
func (m *VMap) Has(v graph.Vertex) bool {
	if m.dense {
		return uint32(m.dword[v]) == m.epoch
	}
	_, ok := m.Get(v)
	return ok
}

// Set stores val under v, overwriting any previous value. On a dense
// map it panics if val does not fit in 32 bits.
func (m *VMap) Set(v, val graph.Vertex) {
	if m.dense {
		if val>>32 != 0 {
			panic("arena: dense VMap value does not fit in 32 bits")
		}
		if uint32(m.dword[v]) != m.epoch {
			m.n++
		}
		m.dword[v] = uint64(val)<<32 | uint64(m.epoch)
		return
	}
	if 4*(m.n+1) > 3*len(m.skeys) {
		m.grow()
	}
	mask := uint64(len(m.skeys) - 1)
	i := hashIdx(uint64(v), mask)
	for m.sstamp[i] == m.epoch && m.skeys[i] != v {
		i = (i + 1) & mask
	}
	if m.sstamp[i] != m.epoch {
		m.sstamp[i] = m.epoch
		m.skeys[i] = v
		m.n++
	}
	m.sval[i] = val
}

func (m *VMap) grow() {
	keys := make([]graph.Vertex, 2*len(m.skeys))
	stamp := make([]uint32, 2*len(m.skeys))
	val := make([]graph.Vertex, 2*len(m.skeys))
	mask := uint64(len(keys) - 1)
	for j, st := range m.sstamp {
		if st != m.epoch {
			continue
		}
		i := hashIdx(uint64(m.skeys[j]), mask)
		for stamp[i] == m.epoch {
			i = (i + 1) & mask
		}
		keys[i], stamp[i], val[i] = m.skeys[j], m.epoch, m.sval[j]
	}
	m.skeys, m.sstamp, m.sval = keys, stamp, val
}

// EdgeMemo is a reusable edge-ID-keyed memo (the probe layer's
// "already revealed?" table) with O(1) clearing. Reset with an
// exclusive bound on the edge IDs, 0 < bound <= DenseEdgeLimit, makes
// it a flat table of one word per 16 IDs: a uint32 stamp in the low
// half and, for ID 16k+j, a seen bit at 32+2j and an open bit at
// 33+2j. Reset with any other bound makes it open-addressed.
type EdgeMemo struct {
	epoch uint32
	n     int
	dense bool

	words []uint64 // dense: stamp and 16 seen/open bit pairs per word

	keys  []uint64 // sparse: open-addressed keys
	stamp []uint32
	open  []bool
}

// Reset empties the memo and sizes it for edge IDs below bound (0 for
// no known bound). It is O(1) except when the backing arrays need to
// grow (or once per 2^32 resets).
func (m *EdgeMemo) Reset(bound uint64) {
	m.n = 0
	m.dense = bound > 0 && bound <= DenseEdgeLimit
	if m.dense && uint64(len(m.words)) < (bound+15)/16 {
		m.words = make([]uint64, (bound+15)/16)
	}
	if !m.dense && m.keys == nil {
		m.keys = make([]uint64, minSparse)
		m.stamp = make([]uint32, minSparse)
		m.open = make([]bool, minSparse)
	}
	if bumpEpoch(&m.epoch) {
		clear(m.words)
		clear(m.stamp)
	}
}

// Len returns the number of memoized edges.
func (m *EdgeMemo) Len() int { return m.n }

// Lookup returns the memoized state of the edge with the given ID. A
// never-reset zero value knows nothing.
func (m *EdgeMemo) Lookup(id uint64) (open, seen bool) {
	if m.dense {
		w := m.words[id>>4]
		if uint32(w) != m.epoch {
			return false, false
		}
		pair := w >> (32 + 2*(id&15))
		return pair&2 != 0, pair&1 != 0
	}
	if len(m.keys) == 0 {
		return false, false
	}
	mask := uint64(len(m.keys) - 1)
	for i := hashIdx(id, mask); ; i = (i + 1) & mask {
		if m.stamp[i] != m.epoch {
			return false, false
		}
		if m.keys[i] == id {
			return m.open[i], true
		}
	}
}

// Find looks the edge with the given ID up once. If seen, open is its
// memoized state; if not, slot is where Insert stores it. A hash memo
// first grows if the next insert would pass 3/4 load, so the slot it
// returns stays valid for that insert; a dense memo stamps the ID's
// word as live, which changes no answer. Find needs a Reset memo, as
// every write does.
func (m *EdgeMemo) Find(id uint64) (slot uint64, open, seen bool) {
	if m.dense {
		slot = id >> 4
		w := m.words[slot]
		if uint32(w) != m.epoch {
			m.words[slot] = uint64(m.epoch)
			return slot, false, false
		}
		pair := w >> (32 + 2*(id&15))
		return slot, pair&2 != 0, pair&1 != 0
	}
	if 4*(m.n+1) > 3*len(m.keys) {
		m.grow()
	}
	mask := uint64(len(m.keys) - 1)
	i := hashIdx(id, mask)
	for m.stamp[i] == m.epoch {
		if m.keys[i] == id {
			return i, m.open[i], true
		}
		i = (i + 1) & mask
	}
	return i, false, false
}

// Insert memoizes the state of an edge Find reported unseen, in the
// slot Find returned. No other call on the memo may come between the
// two: a Reset or another insert can move or take the slot. A Find
// that is not followed by an Insert leaves the memo's contents
// unchanged.
func (m *EdgeMemo) Insert(slot, id uint64, isOpen bool) {
	m.n++
	if m.dense {
		bit := uint64(1) << (32 + 2*(id&15))
		if isOpen {
			bit *= 3
		}
		m.words[slot] |= bit
		return
	}
	m.stamp[slot] = m.epoch
	m.keys[slot] = id
	m.open[slot] = isOpen
}

func (m *EdgeMemo) grow() {
	keys := make([]uint64, 2*len(m.keys))
	stamp := make([]uint32, 2*len(m.keys))
	open := make([]bool, 2*len(m.keys))
	mask := uint64(len(keys) - 1)
	for j, st := range m.stamp {
		if st != m.epoch {
			continue
		}
		i := hashIdx(m.keys[j], mask)
		for stamp[i] == m.epoch {
			i = (i + 1) & mask
		}
		keys[i], stamp[i], open[i] = m.keys[j], m.epoch, m.open[j]
	}
	m.keys, m.stamp, m.open = keys, stamp, open
}

// Arena dispenses reusable trial-state structures from per-type free
// lists. Borrow with Set/Map/Memo/Vertices/Ints (each returns a reset,
// ready-to-use structure) and return with the matching Put method once
// the structure is no longer referenced; structures never returned are
// simply collected by the GC. All Put methods tolerate nil.
type Arena struct {
	sets   []*VSet
	maps   []*VMap
	memos  []*EdgeMemo
	queues [][]graph.Vertex
	ints   [][]int
}

var pool = sync.Pool{New: func() any { return new(Arena) }}

// Acquire returns an arena from the shared pool. Pair with Release;
// the pool is per-P under the hood, so steady-state trial loops reuse
// warm buffers without cross-worker contention.
func Acquire() *Arena { return pool.Get().(*Arena) }

// Release returns the arena (and every structure on its free lists) to
// the shared pool. The caller must not use the arena, or anything
// still borrowed from it, afterwards.
func (a *Arena) Release() { pool.Put(a) }

// Set borrows a vertex set reset for a graph of the given order.
func (a *Arena) Set(order uint64) *VSet {
	var s *VSet
	if k := len(a.sets); k > 0 {
		s = a.sets[k-1]
		a.sets = a.sets[:k-1]
	} else {
		s = new(VSet)
	}
	s.Reset(order)
	return s
}

// PutSet returns a borrowed vertex set.
func (a *Arena) PutSet(s *VSet) {
	if s != nil {
		a.sets = append(a.sets, s)
	}
}

// Map borrows a vertex map reset for a graph of the given order.
func (a *Arena) Map(order uint64) *VMap {
	var m *VMap
	if k := len(a.maps); k > 0 {
		m = a.maps[k-1]
		a.maps = a.maps[:k-1]
	} else {
		m = new(VMap)
	}
	m.Reset(order)
	return m
}

// PutMap returns a borrowed vertex map.
func (a *Arena) PutMap(m *VMap) {
	if m != nil {
		a.maps = append(a.maps, m)
	}
}

// Memo borrows an empty edge memo for edge IDs below bound (0 for no
// known bound; see EdgeMemo.Reset).
func (a *Arena) Memo(bound uint64) *EdgeMemo {
	var m *EdgeMemo
	if k := len(a.memos); k > 0 {
		m = a.memos[k-1]
		a.memos = a.memos[:k-1]
	} else {
		m = new(EdgeMemo)
	}
	m.Reset(bound)
	return m
}

// PutMemo returns a borrowed edge memo.
func (a *Arena) PutMemo(m *EdgeMemo) {
	if m != nil {
		a.memos = append(a.memos, m)
	}
}

// Vertices borrows an empty vertex buffer (BFS queues, frontiers,
// shuffled candidate orders). Return the final slice — after any
// append growth — with PutVertices so the grown capacity is what gets
// recycled.
func (a *Arena) Vertices() []graph.Vertex {
	if k := len(a.queues); k > 0 {
		q := a.queues[k-1]
		a.queues = a.queues[:k-1]
		return q[:0]
	}
	return make([]graph.Vertex, 0, 64)
}

// PutVertices returns a borrowed vertex buffer.
func (a *Arena) PutVertices(q []graph.Vertex) {
	if cap(q) > 0 {
		a.queues = append(a.queues, q)
	}
}

// Ints borrows an empty int buffer, under the Vertices contract.
func (a *Arena) Ints() []int {
	if k := len(a.ints); k > 0 {
		q := a.ints[k-1]
		a.ints = a.ints[:k-1]
		return q[:0]
	}
	return make([]int, 0, 64)
}

// PutInts returns a borrowed int buffer.
func (a *Arena) PutInts(q []int) {
	if cap(q) > 0 {
		a.ints = append(a.ints, q)
	}
}
