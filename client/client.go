// Package client is the remote implementation of api.Runner: a typed
// Go client for the faultrouted HTTP service (see SERVING.md).
//
// A Client is interchangeable with faultroute.Local — the same
// api.Request produces byte-identical canonical result bytes through
// either, because both execute the one compiled codec of faultroute/api
// and the service serves exactly the bytes it cached. Do submits a job,
// polls it to completion and fetches the result; Watch additionally
// streams progress events; the lower-level Submit / Status / Result /
// Cancel calls expose the raw endpoints for callers that manage jobs
// themselves.
//
// Submissions are content-addressed and therefore idempotent: the
// client retries transient failures (network errors, 503 queue-full)
// with exponential backoff, which can never duplicate work — a retried
// submission coalesces onto the first one's job.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"faultroute/api"
	"faultroute/internal/rng"
)

// Client speaks to one faultrouted daemon. Construct with New; a
// Client is immutable after construction and safe for concurrent use.
type Client struct {
	base       string
	hc         *http.Client
	poll       time.Duration
	retries    int
	backoff    time.Duration
	sse        bool
	jitterSalt uint64
}

// clientSeq makes each Client's jitter stream distinct within a
// process; see backoffWait.
var clientSeq atomic.Uint64

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, instrumentation).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithPollInterval sets how often Do and Watch poll a running job's
// status (default 100ms). Polling is the fallback transport: when the
// daemon advertises its Server-Sent-Events progress stream the client
// subscribes to that instead, and the interval only matters if the
// stream is unavailable or dies mid-job.
func WithPollInterval(d time.Duration) Option { return func(c *Client) { c.poll = d } }

// WithSSE toggles the Server-Sent-Events upgrade (default true): when
// enabled and the daemon advertises a progress stream, Do and Watch
// subscribe to GET /v1/jobs/{id}/events instead of polling, falling
// back to polling if the stream is unavailable or disconnects
// mid-job. The transport never affects result bytes — an SSE watch
// and a polling watch of the same job observe equivalent deduplicated
// event sequences and fetch identical results.
func WithSSE(enabled bool) Option { return func(c *Client) { c.sse = enabled } }

// WithRetry sets the transient-failure policy: up to retries extra
// attempts with exponential backoff starting at base (defaults: 3 and
// 100ms), capped at 30s and spread by deterministic jitter — see
// backoffWait. Retried calls are all idempotent — submissions coalesce
// by content address — so retrying is always safe.
func WithRetry(retries int, base time.Duration) Option {
	return func(c *Client) { c.retries, c.backoff = retries, base }
}

// New returns a client for the daemon at base, e.g.
// "http://localhost:8080".
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(base, "/"),
		hc:      http.DefaultClient,
		poll:    100 * time.Millisecond,
		retries: 3,
		backoff: 100 * time.Millisecond,
		sse:     true,
	}
	for _, opt := range opts {
		opt(c)
	}
	h := fnv.New64a()
	io.WriteString(h, c.base)
	c.jitterSalt = rng.Combine(h.Sum64(), clientSeq.Add(1))
	return c
}

// Compile-time check: Client and faultroute.Local are interchangeable.
var _ api.Runner = (*Client)(nil)

// APIError is a non-2xx response from the service, carrying the HTTP
// status code and the server's JSON error message.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's Retry-After hint (zero when absent):
	// on a queue-full 503 the daemon says when capacity is expected
	// back, and the retry loop waits exactly that long — capped by the
	// backoff ceiling — instead of guessing exponentially.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("faultrouted: %d %s: %s", e.StatusCode, http.StatusText(e.StatusCode), e.Message)
}

// JobError reports a job that reached a terminal state other than done
// (failed server-side, or canceled by another client).
type JobError struct {
	Status api.JobStatus
}

func (e *JobError) Error() string {
	return fmt.Sprintf("faultrouted: job %s %s: %s", e.Status.ID, e.Status.State, e.Status.Error)
}

// Do executes the request remotely: submit (or coalesce / hit the
// daemon's cache), poll until terminal, fetch the canonical result
// bytes. The returned Body is byte-identical to a faultroute.Local run
// of the same request.
func (c *Client) Do(ctx context.Context, req api.Request) (api.Result, error) {
	return c.run(ctx, req, nil)
}

// Watch is Do with progress events: onEvent observes the job's state
// and trial counters at every poll (deduplicated, in order) until the
// job is terminal.
func (c *Client) Watch(ctx context.Context, req api.Request, onEvent func(api.Event)) (api.Result, error) {
	return c.run(ctx, req, onEvent)
}

func (c *Client) run(ctx context.Context, req api.Request, onEvent func(api.Event)) (api.Result, error) {
	sub, err := c.Submit(ctx, req)
	if err != nil {
		return api.Result{}, err
	}
	st := sub.Job
	last := api.Event{State: st.State, Done: st.Done, Total: st.Total}
	if onEvent != nil {
		onEvent(last)
	}
	if !st.State.Terminal() {
		// Transport upgrade: subscribe to the daemon's SSE progress
		// stream when it advertises one, falling back to polling if the
		// stream is refused or dies mid-job. Both paths share the dedup
		// state (`last`), so a mid-stream fallback continues the one
		// deduplicated, monotone event sequence seamlessly.
		streamed := false
		if c.sse && sub.Events != "" {
			var fin api.JobStatus
			fin, streamed, err = c.watchEvents(ctx, sub.Events, st.ID, &last, onEvent)
			if err != nil {
				return api.Result{}, err
			}
			if streamed {
				st = fin
			}
		}
		if !streamed {
			if st, err = c.await(ctx, st, &last, onEvent); err != nil {
				return api.Result{}, err
			}
		}
	}
	if st.State != api.JobDone {
		return api.Result{}, &JobError{Status: st}
	}
	body, err := c.Result(ctx, st.Key)
	if err != nil {
		return api.Result{}, err
	}
	return api.Result{Kind: req.Kind, Key: st.Key, Body: body}, nil
}

// await polls the job until it is terminal, emitting deduplicated
// progress events along the way. last is the shared dedup state — the
// most recent event already delivered (by the submit response, an SSE
// stream that died mid-job, or a previous poll).
func (c *Client) await(ctx context.Context, st api.JobStatus, last *api.Event, onEvent func(api.Event)) (api.JobStatus, error) {
	// One reused timer for the whole poll loop: time.After allocates a
	// new timer per tick, which at aggressive WithPollInterval settings
	// (dispatch pools watch many sub-jobs at once) churns measurable
	// garbage for no benefit.
	timer := time.NewTimer(c.poll)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-timer.C:
		}
		cur, err := c.Status(ctx, st.ID)
		if err != nil {
			return st, err
		}
		ev := api.Event{State: cur.State, Done: cur.Done, Total: cur.Total}
		if ev != *last {
			*last = ev
			if onEvent != nil {
				onEvent(ev)
			}
		}
		if cur.State.Terminal() {
			return cur, nil
		}
		timer.Reset(c.poll)
	}
}

// Submit posts the request to POST /v1/jobs and returns the daemon's
// response: a fresh job, a coalesced attachment to an in-flight one, or
// an immediate cache hit.
func (c *Client) Submit(ctx context.Context, req api.Request) (api.SubmitResponse, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return api.SubmitResponse{}, err
	}
	var out api.SubmitResponse
	err = c.call(ctx, http.MethodPost, api.BasePath+"/jobs", payload, &out)
	return out, err
}

// Status fetches GET /v1/jobs/{id}.
func (c *Client) Status(ctx context.Context, id string) (api.JobStatus, error) {
	var out api.JobStatus
	err := c.call(ctx, http.MethodGet, api.BasePath+"/jobs/"+id, nil, &out)
	return out, err
}

// Cancel issues DELETE /v1/jobs/{id} and returns the job's resulting
// status. A job already finished yields an *APIError with StatusCode
// 409 (the result, or failure, stands).
func (c *Client) Cancel(ctx context.Context, id string) (api.JobStatus, error) {
	var out api.JobStatus
	err := c.call(ctx, http.MethodDelete, api.BasePath+"/jobs/"+id, nil, &out)
	return out, err
}

// Result fetches the canonical result bytes stored under a content
// address — exactly the bytes the job computed, byte-comparable against
// local runs. It returns a 404 *APIError while the job is still
// running.
func (c *Client) Result(ctx context.Context, key string) ([]byte, error) {
	var raw json.RawMessage
	if err := c.call(ctx, http.MethodGet, api.BasePath+"/results/"+key, nil, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// Experiments fetches the machine-readable E1..E21 registry.
func (c *Client) Experiments(ctx context.Context) ([]api.ExperimentInfo, error) {
	var out api.ExperimentList
	if err := c.call(ctx, http.MethodGet, api.BasePath+"/experiments", nil, &out); err != nil {
		return nil, err
	}
	return out.Experiments, nil
}

// Health fetches GET /v1/healthz.
func (c *Client) Health(ctx context.Context) (api.Health, error) {
	var out api.Health
	err := c.call(ctx, http.MethodGet, api.BasePath+"/healthz", nil, &out)
	return out, err
}

// maxBackoff caps the exponential retry backoff. Without a ceiling the
// doubling left-shift overflows time.Duration after ~40 attempts,
// turning the wait negative — and time.After(negative) fires
// immediately, degrading backoff into a hot retry loop against an
// already-unhealthy daemon.
const maxBackoff = 30 * time.Second

// backoffWait returns the pause before retry `attempt` (1-based):
// exponential growth from the configured base, capped at maxBackoff,
// jittered into [wait/2, wait]. The jitter hashes (attempt, this
// client's salt) — the salt mixes the base URL with a per-process
// construction counter, so concurrent clients in a process spread
// their retries apart rather than hammering the daemon in lockstep.
// It is deterministic-safe by design: no clock or PRNG draw, so retry
// timing is reproducible for a given construction order and can never
// perturb results (every retried call is idempotent). The deliberate
// tradeoff: identically-constructed clients in separate processes
// share a schedule; full cross-process decorrelation would need real
// entropy, which reproducibility rules out here.
func (c *Client) backoffWait(attempt int) time.Duration {
	wait := c.backoff
	if wait <= 0 {
		return 0
	}
	for i := 1; i < attempt && wait < maxBackoff; i++ {
		wait <<= 1
		if wait <= 0 { // overflow guard for huge configured bases
			wait = maxBackoff
		}
	}
	if wait > maxBackoff {
		wait = maxBackoff
	}
	half := uint64(wait) / 2
	return time.Duration(half + rng.Combine(uint64(attempt), c.jitterSalt)%(half+1))
}

// parseRetryAfter reads a Retry-After header value: delay-seconds or an
// HTTP-date, per RFC 9110. Absent, malformed or non-positive values
// yield zero (fall back to exponential backoff).
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs <= 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// retryWait returns the pause before retry `attempt` given the failure
// that triggered it: the server's Retry-After hint when it sent one
// (bounded by the same maxBackoff cap as the exponential schedule, so a
// confused daemon cannot park clients for an hour), the jittered
// exponential backoff otherwise.
func (c *Client) retryWait(attempt int, lastErr error) time.Duration {
	var ae *APIError
	if errors.As(lastErr, &ae) && ae.RetryAfter > 0 {
		if ae.RetryAfter > maxBackoff {
			return maxBackoff
		}
		return ae.RetryAfter
	}
	return c.backoffWait(attempt)
}

// call issues one API request with the retry policy and decodes the
// response. Raw result bytes are preserved exactly: when out is a
// *json.RawMessage the body is checked with json.Valid and copied
// verbatim, never re-encoded.
func (c *Client) call(ctx context.Context, method, path string, payload []byte, out any) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(c.retryWait(attempt, lastErr)):
			}
		}
		retriable, err := c.once(ctx, method, path, payload, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retriable || attempt >= c.retries {
			return lastErr
		}
	}
}

// once issues a single HTTP request. retriable reports whether the
// failure is transient (network error, 503, or a raw body that is not
// valid JSON): everything else — 4xx, decode errors — is final.
func (c *Client) once(ctx context.Context, method, path string, payload []byte, out any) (retriable bool, err error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return false, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return ctx.Err() == nil, err // network failure: transient unless we were canceled
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		// Mirror the transport-error path: a body cut off because the
		// caller's context was canceled mid-read is final, not a
		// transient daemon failure to retry against.
		return ctx.Err() == nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var eb api.ErrorBody
		_ = json.Unmarshal(data, &eb)
		if eb.Error == "" {
			eb.Error = strings.TrimSpace(string(data))
		}
		apiErr := &APIError{
			StatusCode: resp.StatusCode,
			Message:    eb.Error,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
		return resp.StatusCode == http.StatusServiceUnavailable, apiErr
	}
	if out == nil {
		return false, nil
	}
	if raw, ok := out.(*json.RawMessage); ok {
		// A response cut off without a Content-Length (a connection dropped
		// mid-body on a close-delimited response) reads without error.
		// Every result is a JSON object, and a strict prefix of an object is
		// never valid JSON, so this check is what keeps a truncated body
		// from being returned as a result. Re-reading is idempotent.
		if !json.Valid(data) {
			return ctx.Err() == nil, fmt.Errorf("%s %s: response body is not valid JSON (%d bytes, truncated?)", method, path, len(data))
		}
		*raw = append((*raw)[:0], data...)
		return false, nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return false, fmt.Errorf("decoding %s %s response: %w", method, path, err)
	}
	return false, nil
}
