package dispatch

// The membership layer: which backends the Pool may dispatch to right
// now. A memberSet owns the live member list; with WithResolver it
// re-resolves the backend set between jobs, admitting joiners and
// draining removed backends without restarting the Pool.
//
// Draining is structural rather than stateful: sub-jobs hold *member
// references, so removing a member from the set only removes it from
// FUTURE placement — attempts already running against it finish (or
// fail over) on their own, and the member is garbage once the last one
// returns. There is nothing to flush and no stop-the-world barrier,
// which is exactly what the determinism contract buys: a drained
// backend's unfinished shards recompute identically elsewhere.

import (
	"slices"
	"sync"
	"time"

	"faultroute/client"
)

// member is one backend in the Pool's current view: its client, its
// rendezvous identity, its health mark, and the observed latency the
// hedger times against.
type member struct {
	url     string
	urlHash uint64 // fnv64a(url): the member's side of every rendezvous score
	c       *client.Client

	mu        sync.Mutex
	downUntil time.Time
	wasDown   bool          // down since the last EWMA reset; cleared on recovery
	ewma      time.Duration // per-trial completion latency EWMA (0 = no observation)
}

// newMember builds a member for one backend URL.
func newMember(url string, clientOpts []client.Option) *member {
	return &member{url: url, urlHash: fnv64a(url), c: client.New(url, clientOpts...)}
}

// markDown records a dispatch failure: dispatch passes over the
// backend until the cooldown ends (it stays eligible as a last resort
// when every backend is down).
func (m *member) markDown(cooldown time.Duration) {
	m.mu.Lock()
	m.downUntil = time.Now().Add(cooldown)
	m.wasDown = true
	m.mu.Unlock()
	mBackendsDown.Inc()
}

// up reports whether the backend is out of its cooldown: stored reads,
// submits and hedges pass over a down backend.
func (m *member) up() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return time.Now().After(m.downUntil)
}

// trialEWMA returns the member's per-trial latency EWMA (0 when no
// sub-job has completed on it yet).
func (m *member) trialEWMA() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ewma
}

// ewmaAlpha is the smoothing factor of each member's latency EWMA:
// heavy enough that one slow shard moves the estimate, light enough
// that one cache hit does not erase a backend's history.
const ewmaAlpha = 0.3

// observe folds one completed sub-job's per-trial latency into the
// member's EWMA. A member that was marked down discards its stale
// estimate first (see recover): the pre-failure worst case must not
// outlive the failure.
func (m *member) observe(perTrial time.Duration) {
	m.mu.Lock()
	switch {
	case m.wasDown || m.ewma == 0:
		m.ewma = perTrial
		m.wasDown = false
	default:
		m.ewma += time.Duration(ewmaAlpha * float64(perTrial-m.ewma))
	}
	ewma := m.ewma
	m.mu.Unlock()
	mBackendEWMA.With(m.url).Set(int64(ewma / time.Microsecond))
}

// recover clears a previously-down member's health mark and resets its
// latency estimate to the fleet median: the stale worst-case EWMA a
// backend earned while failing must not skew the fleet median after it
// comes back (a recovered machine is presumed ordinary until observed
// otherwise). No-op for members that were never down.
func (m *member) recover(fleetMedian time.Duration) {
	m.mu.Lock()
	if m.wasDown {
		m.downUntil = time.Time{}
		m.wasDown = false
		if fleetMedian > 0 {
			m.ewma = fleetMedian
			mBackendEWMA.With(m.url).Set(int64(fleetMedian / time.Microsecond))
		}
	}
	m.mu.Unlock()
}

// memberSet is the Pool's live backend list. With a resolver it is
// refreshed between jobs; without one it is fixed at construction.
type memberSet struct {
	resolve    func() []string
	clientOpts []client.Option

	mu      sync.Mutex
	members []*member
}

// newMemberSet builds the initial membership from the resolved URLs,
// less duplicates. The initial members are not counted as joins.
func newMemberSet(urls []string, resolve func() []string, clientOpts []client.Option) *memberSet {
	ms := &memberSet{resolve: resolve, clientOpts: clientOpts}
	ms.set(urls)
	return ms
}

// snapshot returns the current member list. The slice is fresh but the
// members are shared, so health marks and EWMAs stay live.
func (ms *memberSet) snapshot() []*member {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return slices.Clone(ms.members)
}

// refresh re-resolves the backend set: members whose URL is still
// resolved are kept (health marks and EWMAs intact), resolved URLs
// without a member are admitted as fresh joiners, and members whose URL
// disappeared are dropped from placement — draining, per the package
// rationale above. A resolver returning an empty list is ignored: an
// empty fleet is indistinguishable from a resolver outage, and keeping
// the last known members beats dispatching into nothing.
func (ms *memberSet) refresh() {
	if ms.resolve == nil {
		return
	}
	urls := ms.resolve()
	if len(urls) == 0 {
		return
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	joined, left := ms.set(urls)
	mMembersJoined.Add(uint64(joined))
	mMembersLeft.Add(uint64(left))
}

// set makes urls, in order and less duplicates, the member list, and
// reports how many members joined and how many left. Members whose URL
// stays are kept; the caller holds ms.mu, or owns ms alone.
func (ms *memberSet) set(urls []string) (joined, left int) {
	current := make(map[string]*member, len(ms.members))
	for _, m := range ms.members {
		current[m.url] = m
	}
	next := make([]*member, 0, len(urls))
	seen := make(map[string]bool, len(urls))
	for _, url := range urls {
		if seen[url] {
			continue
		}
		seen[url] = true
		if m, ok := current[url]; ok {
			next = append(next, m)
			continue
		}
		next = append(next, newMember(url, ms.clientOpts))
		joined++
	}
	for url := range current {
		if !seen[url] {
			left++
		}
	}
	ms.members = next
	return joined, left
}

// fleetMedianEWMA returns the lower median per-trial EWMA across
// members with an observation, or 0 when nothing has been observed yet:
// the pace hedges are timed against, and the reset value a recovered
// backend re-enters the fleet with. The lower median of an even count
// keeps a two-member fleet's bar at its faster backend; the upper one
// would time a slow owner against its own slowness.
func fleetMedianEWMA(members []*member) time.Duration {
	var known []time.Duration
	for _, m := range members {
		if e := m.trialEWMA(); e > 0 {
			known = append(known, e)
		}
	}
	if len(known) == 0 {
		return 0
	}
	slices.Sort(known)
	return known[(len(known)-1)/2]
}
