package dispatch

// The placement layer: which backend owns a sub-job. Every sub-job is
// content-addressed, so its key names the same result on every backend.
// Placement ranks the live members by a rendezvous (highest random
// weight) score of that key — Thaler & Ravishankar, "Using name-based
// mappings to increase hit rates", IEEE/ACM ToN 1998 — and assign
// bounds how many of one request's sub-jobs a member owns, so an
// estimate's shards spread evenly; a lone sub-job is owned by its
// top-ranked member. The owner comes first in the sub-job's placement
// order and the next member is its successor: the Pool reads the stored
// result at the owner, then at the successor (where hedges and
// failovers leave the results the owner lost), submits to the owner on
// two misses, and fails over down the order. Placement depends only on
// the keys and the member URLs, so a repeated request lands where its
// results already sit, and a join or a leave moves a lone sub-job only
// if the changed member wins or owned it: about 1/n of them. A joiner
// that wins a key ranks the old owner second, so the key stays
// readable. Capacity skew is deliberately not folded into the score (an
// EWMA-weighted score would move a key's owner whenever a latency
// estimate moved, turning the next repeat into a miss); the hedger
// absorbs slow owners instead.

import (
	"cmp"
	"hash/fnv"
	"io"
	"slices"
	"strings"

	"faultroute/internal/rng"
)

// fnv64a is the 64-bit FNV-1a hash of s: the rendezvous identity of a
// content key or a member URL.
func fnv64a(s string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, s)
	return h.Sum64()
}

// rank returns a copy of members ordered by their rendezvous score for
// key, highest first. Equal scores fall back to URL order, so the
// ranking never depends on the order of members.
func rank(members []*member, key string) []*member {
	k := fnv64a(key)
	ranked := slices.Clone(members)
	slices.SortFunc(ranked, func(a, b *member) int {
		if c := cmp.Compare(rng.Combine(k, b.urlHash), rng.Combine(k, a.urlHash)); c != 0 {
			return c
		}
		return strings.Compare(a.url, b.url)
	})
	return ranked
}

// assign places the sub-jobs of one request, given their keys in
// order: for each key it returns the members in placement order, the
// key's owner first and the others after it in rank order. Of S keys
// over n members, every member owns floor(S/n) or ceil(S/n): a key is
// owned by its highest-ranked member below ceil(S/n) while fewer than
// S mod n members have reached that, and below floor(S/n) after. So
// the shards of an estimate spread evenly over the fleet however their
// keys hash (consistent hashing with bounded loads: Mirrokni, Thorup &
// Zadimoghaddam, SODA 2018), and a request of one sub-job goes to the
// top-ranked member. The first key always gets its top-ranked member.
// Placement depends only on the keys, their order and the member URLs,
// never on health, so a repeated request puts every shard where its
// result already sits.
func assign(members []*member, keys []string) [][]*member {
	even, extra := len(keys)/len(members), len(keys)%len(members)
	owned := make(map[*member]int, len(members))
	orders := make([][]*member, len(keys))
	for i, key := range keys {
		limit := even
		if extra > 0 {
			limit++
		}
		order := rank(members, key)
		j := slices.IndexFunc(order, func(m *member) bool { return owned[m] < limit })
		owner := order[j]
		owned[owner]++
		if owned[owner] > even {
			extra-- // owner has reached ceil(S/n)
		}
		orders[i] = slices.Insert(slices.Delete(order, j, j+1), 0, owner)
	}
	return orders
}

// pick returns the member for a sub-job's next attempt, walking its
// placement order by preference tier: the first member that is up and
// untried, else the first untried one (a fresh chance beats a backend
// that already failed THIS sub-job), else the first up one, else the
// owner. A fully down, fully tried pool still yields a member: the
// caller's attempt budget is the real bound. order must be non-empty.
func pick(order []*member, tried map[*member]bool) *member {
	var fresh, up *member
	for _, m := range order {
		switch mUp, mFresh := m.up(), !tried[m]; {
		case mUp && mFresh:
			return m
		case mFresh && fresh == nil:
			fresh = m
		case mUp && up == nil:
			up = m
		}
	}
	switch {
	case fresh != nil:
		return fresh
	case up != nil:
		return up
	}
	return order[0]
}
