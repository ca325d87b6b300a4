package overlay

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"faultroute/internal/arena"
	"faultroute/internal/graph"
)

// The reference lookups: FloodLookup and BacktrackLookup as they ran on
// Go maps before their search state moved to arena tables, kept as the
// oracles the arena versions must match field for field.

func referenceFlood(o *Overlay, from graph.Vertex, key uint64, ttl int) (LookupResult, error) {
	owner := o.Owner(key)
	res := LookupResult{}
	if ttl <= 0 {
		return res, fmt.Errorf("overlay: flood lookup: non-positive ttl %d", ttl)
	}
	if from == owner {
		res.Found = true
		res.Path = []graph.Vertex{from}
		return res, nil
	}
	parent := map[graph.Vertex]graph.Vertex{from: from}
	frontier := []graph.Vertex{from}
	for depth := 1; depth <= ttl && len(frontier) > 0; depth++ {
		var next []graph.Vertex
		for _, v := range frontier {
			for dim := 0; dim < o.cube.Dim(); dim++ {
				w := v ^ graph.Vertex(1<<uint(dim))
				if _, seen := parent[w]; seen {
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
				parent[w] = v
				if w == owner {
					res.Found = true
					res.Hops = depth
					var rev []graph.Vertex
					for x := owner; ; x = parent[x] {
						rev = append(rev, x)
						if x == from {
							break
						}
					}
					for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
						rev[i], rev[j] = rev[j], rev[i]
					}
					res.Path = rev
					return res, nil
				}
				next = append(next, w)
			}
		}
		frontier = next
	}
	return res, fmt.Errorf("%w: owner of key %d not reached within ttl %d",
		ErrLookupFailed, key, ttl)
}

func referenceBacktrack(o *Overlay, from graph.Vertex, key uint64, budget int, allowDetours bool) (LookupResult, error) {
	owner := o.Owner(key)
	res := LookupResult{}
	if budget <= 0 {
		return res, fmt.Errorf("overlay: backtrack lookup: non-positive budget %d", budget)
	}
	if from == owner {
		res.Found = true
		res.Path = []graph.Vertex{from}
		return res, nil
	}
	type frame struct {
		v     graph.Vertex
		cands []graph.Vertex
		next  int
	}
	visited := map[graph.Vertex]bool{from: true}
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
			stack = stack[:len(stack)-1]
			continue
		}
		w := f.cands[f.next]
		f.next++
		if visited[w] {
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
		visited[w] = true
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
		ErrLookupFailed, len(visited))
}

// lookupTally counts how the compared lookups ended.
type lookupTally struct{ found, failed int }

// checkLookup compares one lookup with its reference: every result
// field and the error text must agree, and a failure must wrap
// ErrLookupFailed in both.
func checkLookup(t *testing.T, tally *lookupTally, name string, got LookupResult, gotErr error, want LookupResult, wantErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error() {
		t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\n got %+v\nwant %+v", name, got, want)
	}
	if wantErr != nil {
		if !errors.Is(gotErr, ErrLookupFailed) {
			t.Fatalf("%s: error %v does not wrap ErrLookupFailed", name, gotErr)
		}
		tally.failed++
	} else {
		tally.found++
	}
}

// lookupCase is one overlay with the start nodes and keys to look up.
type lookupCase struct {
	o     *Overlay
	name  string
	froms []graph.Vertex
	keys  []uint64
}

// lookupCases returns E11's and E16's overlay sizes, H_9 and H_10, at
// four p on ten seeds, and H_23, whose order is above arena.DenseLimit
// so the sparse tables run.
func lookupCases(t *testing.T) []lookupCase {
	t.Helper()
	var cases []lookupCase
	for _, n := range []int{9, 10} {
		for _, p := range []float64{0.15, 0.25, 0.4, 0.6} {
			for seed := uint64(1); seed <= 10; seed++ {
				o, err := New(n, p, seed)
				if err != nil {
					t.Fatal(err)
				}
				cases = append(cases, lookupCase{o, fmt.Sprintf("H_%d p=%v seed=%d", n, p, seed),
					[]graph.Vertex{0, graph.Vertex(seed * 37 % o.Cube().Order())},
					[]uint64{seed, seed * 7919, seed*7919 + 1}})
			}
		}
	}
	for _, p := range []float64{0.25, 0.6} {
		o, err := New(23, p, 3)
		if err != nil {
			t.Fatal(err)
		}
		if o.Cube().Order() <= arena.DenseLimit {
			t.Fatalf("H_23 has order %d, not above arena.DenseLimit", o.Cube().Order())
		}
		cases = append(cases, lookupCase{o, fmt.Sprintf("H_23 p=%v", p),
			[]graph.Vertex{0, 1 << 22}, []uint64{1, 2, 3}})
	}
	return cases
}

// TestFloodLookupMatchesReference runs every case at TTLs from 1 (the
// first frontier only) up to E11's 20n.
func TestFloodLookupMatchesReference(t *testing.T) {
	var tally lookupTally
	for _, c := range lookupCases(t) {
		n := c.o.Cube().Dim()
		ttls := []int{1, 2, 4, 20 * n}
		if n > 20 {
			ttls = []int{1, 2, 3} // a TTL-bounded flood of H_23 stays small
		}
		for _, from := range c.froms {
			for _, key := range c.keys {
				for _, ttl := range ttls {
					want, wantErr := referenceFlood(c.o, from, key, ttl)
					got, gotErr := c.o.FloodLookup(from, key, ttl)
					checkLookup(t, &tally, fmt.Sprintf("%s from=%d key=%d ttl=%d", c.name, from, key, ttl),
						got, gotErr, want, wantErr)
				}
			}
		}
	}
	if tally.found == 0 || tally.failed == 0 {
		t.Fatalf("found %d, failed %d: an ending went unexercised", tally.found, tally.failed)
	}
}

// TestBacktrackLookupMatchesReference runs every case with and without
// detours, at budgets from 1 (one transmission) up to E16's 2^22 on
// H_9 and H_10, which lets a detouring search exhaust the cluster.
func TestBacktrackLookupMatchesReference(t *testing.T) {
	var tally lookupTally
	exhausted := 0
	for _, c := range lookupCases(t) {
		n := c.o.Cube().Dim()
		budgets := []int{1, 5, 50, 4 * n * n}
		if n <= 10 {
			budgets = append(budgets, 1<<22)
		}
		for _, from := range c.froms {
			for _, key := range c.keys {
				for _, budget := range budgets {
					for _, detours := range []bool{false, true} {
						want, wantErr := referenceBacktrack(c.o, from, key, budget, detours)
						got, gotErr := c.o.BacktrackLookup(from, key, budget, detours)
						checkLookup(t, &tally, fmt.Sprintf("%s from=%d key=%d budget=%d detours=%v", c.name, from, key, budget, detours),
							got, gotErr, want, wantErr)
						if wantErr != nil && want.Messages < budget {
							exhausted++
						}
					}
				}
			}
		}
	}
	if tally.found == 0 || tally.failed == 0 || exhausted == 0 {
		t.Fatalf("found %d, failed %d, search space exhausted %d: an ending went unexercised",
			tally.found, tally.failed, exhausted)
	}
}

func TestLookupsRejectNodeOutOfRange(t *testing.T) {
	o, err := New(4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.FloodLookup(16, 1, 4); err == nil {
		t.Error("FloodLookup accepted node 16 of H_4")
	}
	if _, err := o.BacktrackLookup(16, 1, 4, true); err == nil {
		t.Error("BacktrackLookup accepted node 16 of H_4")
	}
}
