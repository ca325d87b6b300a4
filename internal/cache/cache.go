// Package cache is the deterministic result store of the serving layer:
// results are content-addressed by the SHA-256 of their job spec's
// canonical encoding.
//
// The addressing scheme leans on the repo-wide determinism guarantee —
// every result is a pure function of its spec and seed, bit-identical at
// any worker count — so a key hit is exact in the strongest sense: the
// stored bytes ARE the answer, not an approximation of it. That is what
// lets the job engine coalesce duplicate submissions onto one in-flight
// computation and serve repeat queries in O(1) without ever validating a
// cached entry against a recomputation.
//
// The store is tiered. Three implementations of ResultStore cooperate:
//
//   - Store is the in-memory tier: a bytes-bounded LRU map (an
//     unbounded map when the bound is zero). It is the only tier a
//     default daemon runs.
//   - Disk is the persistent tier: one content-addressed file per
//     result, written atomically and verified on read, so results
//     survive daemon restarts and corrupt or truncated entries degrade
//     to misses rather than wrong bytes.
//   - Tiered stacks the two: memory in front, disk behind, with hits
//     promoted back into memory.
//
// Because every entry is exact, eviction and persistence are pure
// capacity decisions — no tier ever needs to validate an entry against
// a recomputation, and any mix of tiers serves byte-identical answers.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Key returns the content address of (kind, spec): the lowercase-hex
// SHA-256 of the spec's canonical encoding, domain-separated by kind.
//
// The canonical encoding is encoding/json's: struct fields in
// declaration order, map keys sorted, no insignificant whitespace.
// Callers must therefore key NORMALIZED specs — defaults filled in,
// derived fields resolved — and must exclude anything that does not
// affect the result (worker counts above all), so that every submission
// of the same logical job lands on the same address.
func Key(kind string, spec any) (string, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return "", fmt.Errorf("cache: encoding %s spec: %w", kind, err)
	}
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0}) // domain separator: kind can never bleed into the spec bytes
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ValidKey reports whether key has the shape Key produces: exactly 64
// lowercase hex characters. The disk tier uses keys as file names, so
// anything else — path separators above all — must be rejected before
// it reaches the filesystem.
func ValidKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ResultStore is the contract the serving layer consumes: the job
// engine publishes result bytes under their content address and reads
// them back when a submission finds its job already done, and the HTTP
// layer serves them by address. *Store, *Disk and *Tiered implement
// it; all three are safe for concurrent use.
type ResultStore interface {
	// Get returns the result stored under key, or ok=false on a miss.
	// The returned slice is the caller's to keep: implementations
	// return a private copy (or otherwise never-mutated bytes), so a
	// concurrent eviction or a scribbling caller can never corrupt
	// what later readers observe.
	Get(key string) (val []byte, ok bool)
	// Put stores a copy of val under key. Keys are content addresses
	// of deterministic computations, so the first stored value wins
	// and later Puts of the same key are no-ops.
	Put(key string, val []byte)
	// Has reports whether key is resident, without counting a hit or
	// a miss and without touching recency. Nothing in the serving path
	// calls it: the job engine answers from the Get that finds a result.
	// It stays for cmd/frbench's instrumented wrapper of the interface.
	Has(key string) bool
	// Len returns the number of stored results.
	Len() int
	// Stats returns the cumulative hit and miss counts of Get.
	Stats() (hits, misses uint64)
	// Tiers returns per-tier statistics, fastest tier first.
	Tiers() []TierStats
}

// TierStats is one tier's point-in-time statistics, as surfaced by
// GET /v1/healthz and the faultroute_cache_tier_* metric series.
type TierStats struct {
	// Tier names the tier: "memory" or "disk".
	Tier string
	// Entries is the number of resident results.
	Entries int
	// Bytes is the resident payload weight (keys + values for the
	// memory tier, payload bytes for the disk tier).
	Bytes int64
	// Hits and Misses count this tier's own Get outcomes — under a
	// Tiered store a memory miss that the disk tier answers counts a
	// memory-tier miss AND a disk-tier hit, while the store-wide
	// Stats count one hit.
	Hits, Misses uint64
	// Evictions counts entries removed to stay within the tier's
	// bound (memory: LRU eviction; disk: oldest-first garbage
	// collection under the WithDiskMaxBytes budget, plus corrupt
	// entries quarantined at read).
	Evictions uint64
}

// Compile-time checks: every tier satisfies the serving contract.
var (
	_ ResultStore = (*Store)(nil)
	_ ResultStore = (*Disk)(nil)
	_ ResultStore = (*Tiered)(nil)
)
