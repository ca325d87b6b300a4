package serve

// The submit memo is the hot-path complement to the engine's
// coalescing: at saturation (many clients over a Zipf-popular catalog,
// see TestZipfLoadAbsorbedAndBounded) nearly every POST /v1/jobs is a
// duplicate of one of a few popular specs, and profiling shows the
// handler then spends its time not computing — the engine absorbs
// that — but reflectively JSON-decoding the same request body and
// re-marshaling the same cache-hit response, over and over. Duplicate
// submissions are byte-identical on the wire (clients marshal the same
// spec the same way), so the raw body is a perfect memo key: a hit
// skips decode + normalization + content addressing entirely, reads
// the result bytes with one store Get, and serves the frozen,
// pre-encoded response of the done job with those bytes spliced in as
// its "result" (see writeCached). The frozen response never holds the
// result itself, so result bytes live only in the store, under its
// byte budget. Distinct-body submissions that normalize to the same
// spec miss the memo and pay the full decode — correctness never
// depends on a memo hit, only the per-request CPU does.

import (
	"net/http"
	"sync"
	"sync/atomic"

	"faultroute/api"
)

// memoMaxBody bounds the body size admitted to the memo: every spec in
// the API fits well under this, and refusing outliers keeps the memo's
// worst-case footprint at memoMaxEntries * memoMaxBody.
const memoMaxBody = 4 << 10

// memoMaxEntries bounds the entry count. At capacity an arbitrary
// entry is evicted: the popular-spec entries a Zipf workload cares
// about are re-memoized on the very next duplicate, so approximate
// eviction costs one slow-path request, not correctness.
const memoMaxEntries = 8192

// memoEntry is the compile outcome for one exact request body. The
// task closure is a pure function of the normalized spec, so reusing
// it across submissions is safe — the engine only runs it when the
// submission is fresh.
type memoEntry struct {
	key   string
	total int64
	kind  string
	task  api.Task
	// resp is the frozen cache-hit fast path, set once the job is done:
	// a done job's status is immutable, so every later duplicate of
	// this body gets exactly these bytes plus the stored result —
	// without touching the decoder or the engine's lock. The fast path
	// is taken only when the store Get hits: under a bounded store the
	// result bytes can be evicted after the freeze, and the duplicate
	// must then recompute instead of being answered without them. The
	// frozen job ID can outlive the engine's record of the job, whose
	// history is bounded: GET /v1/jobs/{id} then answers 404, but the
	// response carries the result, so no caller needs the record.
	resp atomic.Pointer[memoResp]
}

// memoResp is the pre-encoded cache-hit response plus the identifiers
// the request log wants.
type memoResp struct {
	body  []byte // encoded SubmitResponse without Result, trailing newline included
	jobID string
}

// submitMemo is a bounded concurrent map from raw body bytes to their
// compile outcome.
type submitMemo struct {
	mu sync.RWMutex
	m  map[string]*memoEntry
}

func newSubmitMemo() *submitMemo {
	return &submitMemo{m: make(map[string]*memoEntry)}
}

func (sm *submitMemo) get(body []byte) *memoEntry {
	if len(body) > memoMaxBody {
		return nil
	}
	sm.mu.RLock()
	e := sm.m[string(body)] // no allocation: the compiler elides the copy for map lookups
	sm.mu.RUnlock()
	return e
}

func (sm *submitMemo) put(body []byte, e *memoEntry) {
	if len(body) > memoMaxBody {
		return
	}
	sm.mu.Lock()
	if len(sm.m) >= memoMaxEntries {
		for k := range sm.m {
			delete(sm.m, k)
			break
		}
	}
	sm.m[string(body)] = e
	sm.mu.Unlock()
}

// writeCached writes a done job's encoded SubmitResponse, frozen
// (without Result, ending in "}\n"), with the stored result bytes data
// spliced in as its last field: the closing brace becomes
// `,"result":` + data without its trailing newline + "}\n". The bytes go
// out verbatim — json.Marshal would re-scan and re-compact a
// RawMessage — so the client's result plus "\n" is exactly data. When
// data does not end in the canonical newline, which canonical bytes
// always do, frozen goes out alone.
func writeCached(w http.ResponseWriter, frozen, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	if len(data) == 0 || data[len(data)-1] != '\n' {
		w.Write(frozen)
		return
	}
	w.Write(frozen[:len(frozen)-2])
	w.Write(resultField)
	w.Write(data[:len(data)-1])
	w.Write(frozen[len(frozen)-2:])
}

// resultField opens the spliced Result field (a package variable, so
// writing it allocates nothing).
var resultField = []byte(`,"result":`)
