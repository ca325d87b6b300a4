package dispatch

// White-box tests of the layer policies in isolation: the shard layout
// rule, rendezvous placement and its per-request spread, hedge timing,
// and cooldown/EWMA recovery.

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"testing"
	"time"

	"faultroute/api"
)

func TestShardRangesCoverTrialsExactly(t *testing.T) {
	// The layout is a rule of the trial count alone: at most 16 trials
	// dispatch whole, and a larger estimate splits into shards of
	// max(16, ceil(trials/8)) trials, all full but the last, contiguous
	// from trial 0 and covering every trial once.
	for _, tc := range []struct{ trials, shards, size int }{
		{1, 0, 0},
		{16, 0, 0},
		{17, 2, 16},
		{64, 4, 16},
		{96, 6, 16},
		{400, 8, 50},
		{1200, 8, 150},
		{api.MaxTrials, 8, api.MaxTrials / 8},
	} {
		ranges := shardRanges(estimateRequest(tc.trials))
		if len(ranges) != tc.shards {
			t.Fatalf("%d trials: %d shards, want %d", tc.trials, len(ranges), tc.shards)
		}
		next := 0
		for i, r := range ranges {
			if r.Offset != next {
				t.Fatalf("%d trials: shard %d starts at %d, want %d (contiguous from 0)", tc.trials, i, r.Offset, next)
			}
			if r.Count > tc.size || r.Count < 1 || (r.Count != tc.size && i < len(ranges)-1) {
				t.Fatalf("%d trials: shard %d holds %d trials, want %d (the last one at most %d)", tc.trials, i, r.Count, tc.size, tc.size)
			}
			next += r.Count
		}
		if tc.shards > 0 && next != tc.trials {
			t.Fatalf("%d trials: shards cover %d", tc.trials, next)
		}
	}
	// A sub-job that already carries a shard dispatches whole.
	sub := estimateRequest(64)
	sub.Estimate.Shard = &api.ShardSpec{Offset: 0, Count: 64}
	if ranges := shardRanges(sub); ranges != nil {
		t.Fatalf("a shard sub-job split again into %v", ranges)
	}
}

func TestRankIsRendezvous(t *testing.T) {
	urls := []string{"http://10.0.0.1:8080", "http://10.0.0.2:8080", "http://10.0.0.3:8080", "http://10.0.0.4:8080"}
	ms := make([]*member, len(urls))
	for i, u := range urls {
		ms[i] = newMember(u, nil)
	}
	three, newcomer := ms[:3], ms[3]
	removed := three[1]
	two := []*member{three[0], three[2]}
	reversed := []*member{three[2], three[1], three[0]}
	four := []*member{three[0], newcomer, three[1], three[2]}

	const keys = 3000
	owned := map[string]int{}
	movedToNewcomer := 0
	for i := 0; i < keys; i++ {
		sum := sha256.Sum256([]byte{byte(i), byte(i >> 8)})
		key := hex.EncodeToString(sum[:])
		base := urlsOf(rank(three, key))
		if got := urlsOf(rank(reversed, key)); !slices.Equal(got, base) {
			t.Fatalf("key %d: ranking depends on member order: %v vs %v", i, got, base)
		}
		// Removing a member keeps the others in their relative order, so
		// only the keys it owned change owner.
		if got, want := urlsOf(rank(two, key)), slices.DeleteFunc(slices.Clone(base), func(u string) bool { return u == removed.url }); !slices.Equal(got, want) {
			t.Fatalf("key %d: removing %s reordered the rest: %v, want %v", i, removed.url, got, want)
		}
		// Adding a member inserts it somewhere without reordering the rest,
		// so a key moves only when the newcomer wins it.
		withNew := urlsOf(rank(four, key))
		if got := slices.DeleteFunc(slices.Clone(withNew), func(u string) bool { return u == newcomer.url }); !slices.Equal(got, base) {
			t.Fatalf("key %d: adding %s reordered the rest: %v, want %v", i, newcomer.url, got, base)
		}
		if withNew[0] != base[0] {
			movedToNewcomer++
		}
		owned[base[0]]++
	}
	for _, m := range three {
		if share := float64(owned[m.url]) / keys; share < 0.30 || share > 0.37 {
			t.Errorf("%s owns %.3f of %d keys, want within [0.30, 0.37]", m.url, share, keys)
		}
	}
	if share := float64(movedToNewcomer) / keys; share < 0.2 || share > 0.3 {
		t.Errorf("a fourth member took %.3f of the keys, want about 1/4", share)
	}

	// Equal scores fall back to URL order.
	a, b := &member{url: "a", urlHash: 7}, &member{url: "b", urlHash: 7}
	if got := urlsOf(rank([]*member{b, a}, "k")); !slices.Equal(got, []string{"a", "b"}) {
		t.Fatalf("tied ranking %v, want URL order [a b]", got)
	}
}

func TestAssignSpreadsShardsEvenly(t *testing.T) {
	// Of a request's S keys over n members, every member owns floor(S/n)
	// or ceil(S/n), the first key gets its top-ranked member, the owner
	// leads the placement order and the others follow in rank order, and
	// the assignment depends on the keys and URLs alone.
	urls := []string{"http://10.0.0.1:8080", "http://10.0.0.2:8080", "http://10.0.0.3:8080", "http://10.0.0.4:8080"}
	ms := make([]*member, len(urls))
	for i, u := range urls {
		ms[i] = newMember(u, nil)
	}
	next := 0
	for _, n := range []int{1, 2, 3, 4} {
		members := ms[:n]
		for shards := 1; shards <= 12; shards++ {
			for trial := 0; trial < 20; trial++ {
				keys := make([]string, shards)
				for i := range keys {
					sum := sha256.Sum256([]byte{byte(next), byte(next >> 8), byte(next >> 16)})
					keys[i] = hex.EncodeToString(sum[:])
					next++
				}
				orders := assign(members, keys)
				owned := map[*member]int{}
				for i, order := range orders {
					owner := order[0]
					owned[owner]++
					ranked := rank(members, keys[i])
					if i == 0 && owner != ranked[0] {
						t.Fatalf("n=%d: the first key went to %s, want its top-ranked %s", n, owner.url, ranked[0].url)
					}
					rest := slices.DeleteFunc(slices.Clone(ranked), func(m *member) bool { return m == owner })
					if !slices.Equal(order[1:], rest) {
						t.Fatalf("n=%d key %d: placement order %v, want the owner then rank order %v", n, i, urlsOf(order), urlsOf(rest))
					}
				}
				for _, m := range members {
					if c, lo, hi := owned[m], shards/n, (shards+n-1)/n; c < lo || c > hi {
						t.Fatalf("n=%d, %d keys: %s owns %d, want %d or %d", n, shards, m.url, c, lo, hi)
					}
				}
				reversed := slices.Clone(members)
				slices.Reverse(reversed)
				for i, order := range assign(reversed, keys) {
					if order[0] != orders[i][0] {
						t.Fatalf("n=%d key %d: assignment depends on member order", n, i)
					}
				}
			}
		}
	}
}

func urlsOf(ms []*member) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.url
	}
	return out
}

func TestPickPrefersUntried(t *testing.T) {
	// The attempt loop walks the ranking by tier: up and untried, then
	// untried, then up, then the owner.
	owner, second, third := &member{url: "owner"}, &member{url: "second"}, &member{url: "third"}
	ranked := []*member{owner, second, third}
	if got := pick(ranked, map[*member]bool{}); got != owner {
		t.Fatalf("fresh pool picked %q, want the owner", got.url)
	}
	if got := pick(ranked, map[*member]bool{owner: true}); got != second {
		t.Fatalf("pick chose %q after the owner failed, want the next-ranked %q", got.url, second.url)
	}
	second.markDown(time.Hour)
	if got := pick(ranked, map[*member]bool{owner: true}); got != third {
		t.Fatalf("pick chose %q, want the up and untried %q over the down %q", got.url, third.url, second.url)
	}
	third.markDown(time.Hour)
	if got := pick(ranked, map[*member]bool{owner: true}); got != second {
		t.Fatalf("pick chose %q, want the first untried %q over the tried owner", got.url, second.url)
	}
	if got := pick(ranked, map[*member]bool{owner: true, second: true, third: true}); got != owner {
		t.Fatalf("pick chose %q, want the up owner once every member was tried", got.url)
	}
	owner.markDown(time.Hour)
	if got := pick(ranked, map[*member]bool{owner: true, second: true, third: true}); got != owner {
		t.Fatalf("pick chose %q from a down, fully tried pool, want the owner", got.url)
	}
}

func TestHedgeExpectationUsesFleetMedian(t *testing.T) {
	// The owner is five times slower than the fleet median: it is hedged
	// at twice what the median backend would take, not twice its own
	// slowness. In a two-member fleet the median is the faster member's
	// EWMA, or a slow owner would be timed against itself.
	median := 2 * time.Millisecond
	req := estimateRequest(40)
	req.Estimate.Shard = &api.ShardSpec{Offset: 10, Count: 10}
	h := hedger{floor: time.Millisecond, factor: hedgeFactor}
	for _, members := range [][]*member{
		{{url: "owner", ewma: 5 * median}, {url: "a", ewma: median}, {url: "b", ewma: median}},
		{{url: "owner", ewma: 5 * median}, {url: "a", ewma: median}},
	} {
		if got, want := h.delay(expectedDuration(members, req)), 2*median*10; got != want {
			t.Fatalf("%d members: hedge delay = %v, want 2 x median x trials = %v", len(members), got, want)
		}
	}
}

func TestPickHedgeTakesSuccessor(t *testing.T) {
	// A hedge runs on the first member in rank order that is up, untried
	// and not the primary: the second place the stored read looks, so a
	// winning hedge's result is found by the next repeat.
	owner, second, third := &member{url: "owner"}, &member{url: "second"}, &member{url: "third"}
	ranked := []*member{owner, second, third}
	if got := pickHedge(ranked, map[*member]bool{owner: true}, owner); got != second {
		t.Fatalf("hedge went to %v, want the successor %q", got, second.url)
	}
	second.markDown(time.Hour)
	if got := pickHedge(ranked, map[*member]bool{owner: true}, owner); got != third {
		t.Fatalf("hedge went to %v, want the next up member %q", got, third.url)
	}
	if got := pickHedge(ranked, map[*member]bool{owner: true, third: true}, owner); got != nil {
		t.Fatalf("hedge went to %q, want none: every other member is down or tried", got.url)
	}
}

func TestMemberRecoverResetsEWMAToFleetMedian(t *testing.T) {
	m := &member{url: "x"}
	m.observe(time.Millisecond)
	m.markDown(time.Hour)
	// The failure-era estimate is catastrophic; recovery must not keep it.
	m.wasDown = true
	m.ewma = 10 * time.Second

	median := 2 * time.Millisecond
	m.recover(median)
	if !m.up() {
		t.Fatal("recovered member still in cooldown")
	}
	if got := m.trialEWMA(); got != median {
		t.Fatalf("recovered EWMA = %v, want fleet median %v", got, median)
	}
	// A second recover is a no-op: only a down member resets.
	m.observe(5 * time.Millisecond)
	before := m.trialEWMA()
	m.recover(median)
	if got := m.trialEWMA(); got != before {
		t.Fatalf("recover on a healthy member rewrote its EWMA: %v -> %v", before, got)
	}
}

func TestMemberObserveDiscardsPreFailureEWMA(t *testing.T) {
	m := &member{url: "y"}
	m.observe(10 * time.Second) // pathological pre-failure estimate
	m.markDown(time.Millisecond)
	time.Sleep(2 * time.Millisecond) // cooldown lapses on its own
	m.observe(time.Millisecond)
	if got := m.trialEWMA(); got != time.Millisecond {
		t.Fatalf("post-failure EWMA = %v, want a clean restart at 1ms", got)
	}
}

func TestFleetMedianEWMA(t *testing.T) {
	members := []*member{
		{ewma: 3 * time.Millisecond},
		{ewma: time.Millisecond},
		{}, // no observation: excluded
		{ewma: 9 * time.Millisecond},
	}
	if got := fleetMedianEWMA(members); got != 3*time.Millisecond {
		t.Fatalf("fleet median = %v, want 3ms", got)
	}
	if got := fleetMedianEWMA(members[1:]); got != time.Millisecond {
		t.Fatalf("fleet median of two = %v, want the lower, 1ms", got)
	}
	if got := fleetMedianEWMA([]*member{{}, {}}); got != 0 {
		t.Fatalf("median of unobserved fleet = %v, want 0", got)
	}
}

func TestHedgerDelayFloorsAndScales(t *testing.T) {
	h := hedger{floor: 400 * time.Millisecond, factor: 2}
	if got := h.delay(0); got != 400*time.Millisecond {
		t.Fatalf("delay with unknown expectation = %v, want the 400ms floor", got)
	}
	if got := h.delay(time.Second); got != 2*time.Second {
		t.Fatalf("delay for a 1s attempt = %v, want 2s (factor)", got)
	}
}

// estimateRequest builds a minimal normalized estimate for layout and
// hedge tests (white-box: no wire validation needed).
func estimateRequest(trials int) api.Request {
	return api.Request{Kind: api.KindEstimate, Estimate: &api.EstimateSpec{Trials: trials}}
}
