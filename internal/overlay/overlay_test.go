package overlay

import (
	"errors"
	"testing"

	"faultroute/internal/graph"
	"faultroute/internal/percolation"
	"faultroute/internal/rng"
)

func TestOwnerInRange(t *testing.T) {
	o, err := New(8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(0); key < 1000; key++ {
		if v := o.Owner(key); uint64(v) >= o.Cube().Order() {
			t.Fatalf("owner %d out of range", v)
		}
	}
}

func TestOwnerSpreadsUniformly(t *testing.T) {
	o, err := New(4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 16)
	const keys = 16000
	for key := uint64(0); key < keys; key++ {
		counts[o.Owner(key)]++
	}
	for v, c := range counts {
		if c < keys/16/2 || c > keys/16*2 {
			t.Fatalf("owner %d got %d keys, want ~%d", v, c, keys/16)
		}
	}
}

func TestGreedyLookupFaultFree(t *testing.T) {
	o, err := New(10, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(0); key < 50; key++ {
		res, err := o.GreedyLookup(0, key)
		if err != nil {
			t.Fatalf("key %d: %v", key, err)
		}
		want := o.Cube().Dist(0, o.Owner(key))
		if res.Hops != want {
			t.Fatalf("key %d: hops = %d, want %d", key, res.Hops, want)
		}
		if res.Messages != res.Hops {
			t.Fatalf("key %d: fault-free lookup wasted messages: %d vs %d",
				key, res.Messages, res.Hops)
		}
		if res.Path[len(res.Path)-1] != o.Owner(key) {
			t.Fatalf("key %d: path ends at %d", key, res.Path[len(res.Path)-1])
		}
	}
}

func TestGreedyLookupSelfOwner(t *testing.T) {
	o, _ := New(6, 1, 1)
	var key uint64
	for ; o.Owner(key) != 0; key++ {
	}
	res, err := o.GreedyLookup(0, key)
	if err != nil || !res.Found || res.Hops != 0 {
		t.Fatalf("self lookup: %+v, %v", res, err)
	}
}

func TestGreedyLookupFailsWhenStuck(t *testing.T) {
	o, err := New(8, 0, 1) // all links dead
	if err != nil {
		t.Fatal(err)
	}
	var key uint64
	for ; o.Owner(key) == 0; key++ {
	}
	_, lerr := o.GreedyLookup(0, key)
	if !errors.Is(lerr, ErrLookupFailed) {
		t.Fatalf("err = %v, want ErrLookupFailed", lerr)
	}
}

func TestGreedyLookupPathIsOpenWalk(t *testing.T) {
	o, err := New(9, 0.8, 7)
	if err != nil {
		t.Fatal(err)
	}
	s := o.Sample()
	str := rng.NewStream(3)
	for k := 0; k < 40; k++ {
		key := str.Uint64()
		from := graph.Vertex(str.Uint64n(o.Cube().Order()))
		res, err := o.GreedyLookup(from, key)
		if err != nil {
			continue
		}
		for i := 1; i < len(res.Path); i++ {
			open, oerr := s.Open(res.Path[i-1], res.Path[i])
			if oerr != nil || !open {
				t.Fatalf("hop {%d,%d} invalid: %v %v", res.Path[i-1], res.Path[i], open, oerr)
			}
		}
	}
}

func TestFloodLookupFaultFree(t *testing.T) {
	o, err := New(8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.FloodLookup(0, 12345, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := o.Cube().Dist(0, o.Owner(12345))
	if res.Hops != want {
		t.Fatalf("flood depth = %d, want %d", res.Hops, want)
	}
}

func TestFloodLookupTTLRespected(t *testing.T) {
	o, err := New(8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var key uint64
	for ; o.Cube().Dist(0, o.Owner(key)) < 4; key++ {
	}
	if _, err := o.FloodLookup(0, key, 2); !errors.Is(err, ErrLookupFailed) {
		t.Fatalf("distant key found within ttl 2: %v", err)
	}
	if _, err := o.FloodLookup(0, key, 0); err == nil {
		t.Fatal("non-positive ttl accepted")
	}
}

func TestFloodLookupAgreesWithConnectivity(t *testing.T) {
	o, err := New(9, 0.35, 5)
	if err != nil {
		t.Fatal(err)
	}
	comps, err := percolation.Label(o.Sample())
	if err != nil {
		t.Fatal(err)
	}
	str := rng.NewStream(11)
	for k := 0; k < 30; k++ {
		key := str.Uint64()
		from := graph.Vertex(str.Uint64n(o.Cube().Order()))
		owner := o.Owner(key)
		res, lerr := o.FloodLookup(from, key, 10*o.Cube().Dim())
		if lerr == nil != res.Found {
			t.Fatal("Found flag inconsistent with error")
		}
		if res.Found && !comps.Connected(from, owner) {
			t.Fatalf("flood found a disconnected owner")
		}
		if !res.Found && comps.Connected(from, owner) {
			// With a generous TTL every connected owner must be found.
			t.Fatalf("flood missed a connected owner (from %d to %d)", from, owner)
		}
	}
}

func TestFloodSurvivesWhereGreedyDies(t *testing.T) {
	// Section 1.3's prediction in miniature: at p between the two
	// transitions, flooding keeps finding connected owners while greedy
	// gets stuck most of the time.
	const n = 10
	p := 0.28 // below n^{-1/2} ≈ 0.32, above the connectivity threshold
	var greedyOK, floodOK, trials int
	for seed := uint64(0); seed < 30; seed++ {
		o, err := New(n, p, seed)
		if err != nil {
			t.Fatal(err)
		}
		comps, err := percolation.Label(o.Sample())
		if err != nil {
			t.Fatal(err)
		}
		key := uint64(seed * 977)
		owner := o.Owner(key)
		from := graph.Vertex(0)
		for !comps.InGiant(from) {
			from++
		}
		if !comps.Connected(from, owner) {
			continue
		}
		trials++
		if res, err := o.GreedyLookup(from, key); err == nil && res.Found {
			greedyOK++
		}
		if res, err := o.FloodLookup(from, key, 20*n); err == nil && res.Found {
			floodOK++
		}
	}
	if trials < 5 {
		t.Skipf("only %d connected trials", trials)
	}
	if floodOK != trials {
		t.Fatalf("flood failed on connected pairs: %d/%d", floodOK, trials)
	}
	if greedyOK == trials {
		t.Fatalf("greedy never failed below the routing transition (%d/%d)", greedyOK, trials)
	}
}
