package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"faultroute/api"
	"faultroute/internal/cache"
)

// tracer records spans and counts at layer boundaries, all from
// frbench's own side of each call: around every op, around each HTTP
// round trip a client makes, around the service's handler, and around
// every result-store call. Nothing inside the program is instrumented.
// Spans stay in memory and are written out when the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	// client is the HTTP client whose round trips are traced.
	client *http.Client
	// probeMisses counts 404 answers to GET /v1/results: the dispatch
	// pool's peer-fill probes that found nothing.
	probeMisses atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int
	stats   map[string]*spanStat
}

// span is one timed call. Op is the index of the op that caused it
// (every span of one op shares it), -1 when the call cannot be tied to
// an op, as for result-store calls made by the job executors.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

type spanStat struct{ n, ns int64 }

// maxSpans bounds the spans kept for the trace file; aggregates count
// every span.
const maxSpans = 200_000

// spanHeader carries "<span id>/<op>" from the client's round trip to
// the service's handler, so server spans join their op's tree.
const spanHeader = "Frbench-Span"

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), stats: make(map[string]*spanStat)}
	t.client = &http.Client{Transport: tracedTransport{t}}
	return t
}

// reset drops everything recorded so far: warm-up calls must not count
// towards the timed window.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans, t.dropped = nil, 0
	t.stats = make(map[string]*spanStat)
	t.probeMisses.Store(0)
}

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// record closes span id, started at start, now.
func (t *tracer) record(id, parent uint64, op int, name string, start time.Time) {
	dur := time.Since(start).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stats[name]
	if st == nil {
		st = &spanStat{}
		t.stats[name] = st
	}
	st.n++
	st.ns += dur
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start.Sub(t.epoch).Nanoseconds(), Dur: dur})
}

// total sums the count and duration of every span whose name starts
// with prefix.
func (t *tracer) total(prefix string) (n, ns int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, st := range t.stats {
		if strings.HasPrefix(name, prefix) {
			n += st.n
			ns += st.ns
		}
	}
	return n, ns
}

// write emits the kept spans as JSON lines after a header line.
func (t *tracer) write(w io.Writer, header any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header); err != nil {
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// opRef ties a call to the op that caused it.
type opRef struct {
	span uint64
	op   int
}

type opKey struct{}

func withOp(ctx context.Context, ref opRef) context.Context {
	return context.WithValue(ctx, opKey{}, ref)
}

func opOf(ctx context.Context) opRef {
	if ref, ok := ctx.Value(opKey{}).(opRef); ok {
		return ref
	}
	return opRef{op: -1}
}

// tracedTransport times each round trip (request sent to response
// headers received) over http.DefaultTransport, the transport an
// untraced client uses.
type tracedTransport struct{ t *tracer }

func (tt tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref := opOf(req.Context())
	id := tt.t.newID()
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, fmt.Sprintf("%d/%d", id, ref.op))
	start := time.Now()
	resp, err := http.DefaultTransport.RoundTrip(out)
	tt.t.record(id, ref.span, ref.op, "client."+endpoint(req.Method, req.URL.Path), start)
	if err == nil && resp.StatusCode == http.StatusNotFound && endpoint(req.Method, req.URL.Path) == "result" {
		tt.t.probeMisses.Add(1)
	}
	return resp, err
}

// handler wraps a service's handler with one span per request.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var parent uint64
		op := -1
		if v := r.Header.Get(spanHeader); v != "" {
			fmt.Sscanf(v, "%d/%d", &parent, &op)
		}
		id := t.newID()
		start := time.Now()
		next.ServeHTTP(w, r)
		t.record(id, parent, op, "serve."+endpoint(r.Method, r.URL.Path), start)
	})
}

// endpoint names the API call a request makes.
func endpoint(method, path string) string {
	jobs := api.BasePath + "/jobs"
	switch {
	case method == http.MethodPost && path == jobs:
		return "submit"
	case strings.HasPrefix(path, api.BasePath+"/results/"):
		return "result"
	case method == http.MethodDelete:
		return "cancel"
	case strings.HasPrefix(path, jobs+"/") && strings.HasSuffix(path, "/events"):
		return "events"
	case strings.HasPrefix(path, jobs+"/"):
		return "status"
	default:
		return "other"
	}
}

// store wraps a result store with one span per Get, Put and Has.
func (t *tracer) store(s cache.ResultStore) cache.ResultStore { return timedStore{s, t} }

type timedStore struct {
	cache.ResultStore
	t *tracer
}

func (s timedStore) Get(key string) ([]byte, bool) {
	start := time.Now()
	v, ok := s.ResultStore.Get(key)
	s.t.record(s.t.newID(), 0, -1, "cache.get", start)
	return v, ok
}

func (s timedStore) Put(key string, val []byte) {
	start := time.Now()
	s.ResultStore.Put(key, val)
	s.t.record(s.t.newID(), 0, -1, "cache.put", start)
}

func (s timedStore) Has(key string) bool {
	start := time.Now()
	ok := s.ResultStore.Has(key)
	s.t.record(s.t.newID(), 0, -1, "cache.has", start)
	return ok
}
