// Package client is the remote implementation of api.Runner: a typed
// Go client for the faultrouted HTTP service (see SERVING.md).
//
// A Client is interchangeable with faultroute.Local — the same
// api.Request produces byte-identical canonical result bytes through
// either, because both execute the one compiled codec of faultroute/api
// and the service serves exactly the bytes it cached. Do submits a job
// and follows it to completion on the submission's own exchange: the
// daemon answers a job that is not done yet with the job's event
// stream, which ends with the result bytes, and a job already done
// with the bytes themselves, so either costs one request. An answer
// that ends before the job does (a stream cut mid-job, or JSON for a
// running job) is followed by resubmitting, which coalesces onto the
// running job or is answered with its result. Watch additionally
// delivers progress events, and WatchJob also reports the job each
// submission named; the lower-level Submit / Status / Result / Cancel
// calls expose the raw endpoints for callers that manage jobs
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
	retries    int
	backoff    time.Duration
	jitterSalt uint64
	maxBody    int64 // response body bound: maxResponseBytes outside tests
}

// maxResponseBytes bounds every response body the client reads, so a
// broken or hostile endpoint cannot exhaust the caller's memory. The
// largest body an accepted request can produce is a shard result of
// api.MaxTrials trial rows, and a row encodes in at most 100 bytes
// (every field set, each number at its longest); 128 bytes a row leaves
// room for the submit response that can wrap those rows.
const maxResponseBytes = 128 * api.MaxTrials

// clientSeq makes each Client's jitter stream distinct within a
// process; see backoffWait.
var clientSeq atomic.Uint64

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, instrumentation).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetry sets the transient-failure policy: up to retries extra
// attempts with exponential backoff starting at base (defaults: 3 and
// 100ms), capped at 30s and spread by deterministic jitter — see
// backoffWait. Retried calls are all idempotent — submissions coalesce
// by content address — so retrying is always safe. The first backoff
// step also paces the resubmission that follows an answer ending
// before its job did (see WatchJob).
func WithRetry(retries int, base time.Duration) Option {
	return func(c *Client) { c.retries, c.backoff = retries, base }
}

// New returns a client for the daemon at base, e.g.
// "http://localhost:8080".
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(base, "/"),
		hc:      http.DefaultClient,
		retries: 3,
		backoff: 100 * time.Millisecond,
		maxBody: maxResponseBytes,
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
// daemon's cache), follow the job to a terminal state, and return the
// canonical result bytes. The returned Body is byte-identical to a
// faultroute.Local run of the same request.
func (c *Client) Do(ctx context.Context, req api.Request) (api.Result, error) {
	return c.WatchJob(ctx, req, nil, nil)
}

// Watch is Do with progress events: onEvent observes the job's state
// and trial counters as they change (deduplicated, in order) until the
// job is terminal.
func (c *Client) Watch(ctx context.Context, req api.Request, onEvent func(api.Event)) (api.Result, error) {
	return c.WatchJob(ctx, req, nil, onEvent)
}

// WatchJob is Watch that also reports every submission it makes:
// onSubmit, when non-nil, observes the daemon's answer to the first
// submission and to each resubmission, before the job is followed. Its
// Job.ID names the job the daemon is running for the request at that
// moment, the one a caller that abandons the watch would cancel.
//
// A job is followed only on what its submission answers: the job's
// event stream, which ends with the result bytes, when the job is not
// done yet, so a fresh job costs one request. An answer that does not
// carry the job to its end (a stream that ends, or sends an oversized
// event, before its terminal event, or a JSON answer for a job not yet
// done) is resubmitted after the first backoff step of WithRetry. The
// resubmission coalesces onto the running job or is answered with its
// result; such resubmissions are bounded by ctx, and each by its own
// transport retries. A done job whose answer carried no result bytes
// costs one GET /v1/results, and a failed or canceled one a status
// read for its error. A 404 from either read (the daemon forgot the job
// or its bytes) is resubmitted too, up to WithRetry's retry count.
func (c *Client) WatchJob(ctx context.Context, req api.Request, onSubmit func(api.SubmitResponse), onEvent func(api.Event)) (api.Result, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return api.Result{}, err
	}
	var last api.Event // the event delivered last; the zero Event before the first
	for forgotten := 0; ; {
		var sub api.SubmitResponse
		es, err := c.exchange(ctx, http.MethodPost, api.BasePath+"/jobs", payload, &sub, true)
		if err != nil {
			return api.Result{}, err
		}
		if onSubmit != nil {
			onSubmit(sub)
		}
		emit(api.Event{State: sub.Job.State, Done: sub.Job.Done, Total: sub.Job.Total}, &last, onEvent)
		res, err := c.follow(ctx, req, sub, es, &last, onEvent)
		var ae *APIError
		switch {
		case errors.Is(err, errUnfinished):
			select {
			case <-ctx.Done():
				return api.Result{}, ctx.Err()
			case <-time.After(c.backoffWait(1)):
			}
			continue
		case forgotten < c.retries && errors.As(err, &ae) && ae.StatusCode == http.StatusNotFound:
			// The daemon acknowledged the job and has since forgotten it
			// or its bytes: its bounded history dropped the finished
			// job's record, or its bounded store evicted the result.
			// Submissions are content-addressed, so resubmitting
			// coalesces onto the same work or recomputes the same bytes.
			forgotten++
			continue
		}
		return res, err
	}
}

// errUnfinished reports an answer to a submission that ended before
// the job did; WatchJob resubmits then.
var errUnfinished = errors.New("client: the answer ended before its job did")

// emit delivers ev to onEvent unless it repeats the last event
// delivered or moves progress backwards, and records it as the last.
// The one dedup state spans every answer of a watch, so the sequence
// stays deduplicated and monotone across resubmissions, even against a
// confused server.
func emit(ev api.Event, last *api.Event, onEvent func(api.Event)) {
	if ev == *last || ev.Done < last.Done {
		return
	}
	*last = ev
	if onEvent != nil {
		onEvent(ev)
	}
}

// follow watches a submitted job to a terminal state on the
// submission's answer and returns its result. es is the job's event
// stream when the submission was answered with one, else nil. It
// returns errUnfinished when the answer ended before the job did. A
// 404 *APIError from the result fetch or the status read means the
// daemon forgot the job or its bytes; WatchJob resubmits then.
func (c *Client) follow(ctx context.Context, req api.Request, sub api.SubmitResponse, es *eventStream, last *api.Event, onEvent func(api.Event)) (api.Result, error) {
	st, result := sub.Job, sub.Result
	if es != nil {
		var err error
		if st, result, err = c.watchStream(ctx, es, st, last, onEvent); err != nil {
			return api.Result{}, err
		}
	}
	switch {
	case !st.State.Terminal():
		return api.Result{}, errUnfinished
	case st.State != api.JobDone:
		return api.Result{}, &JobError{Status: st}
	case len(result) > 0:
		// A cached submission, or the stream's result event, carries the
		// stored bytes less their canonical trailing newline.
		return api.Result{Kind: req.Kind, Key: st.Key, Body: append(result, '\n')}, nil
	}
	body, err := c.Result(ctx, st.Key)
	if err != nil {
		return api.Result{}, err
	}
	return api.Result{Kind: req.Kind, Key: st.Key, Body: body}, nil
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
// *json.RawMessage the body is copied verbatim, never re-encoded.
func (c *Client) call(ctx context.Context, method, path string, payload []byte, out any) error {
	_, err := c.exchange(ctx, method, path, payload, out, false)
	return err
}

// exchange is call that, when stream is set, also asks for an event
// stream (Accept: text/event-stream). A 200 event-stream answer is
// returned open, its first event, the submitted event, decoded into
// out; any other answer is decoded as call decodes it, and exchange
// returns a nil stream.
func (c *Client) exchange(ctx context.Context, method, path string, payload []byte, out any, stream bool) (*eventStream, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(c.retryWait(attempt, lastErr)):
			}
		}
		retriable, es, err := c.once(ctx, method, path, payload, out, stream)
		if err == nil {
			return es, nil
		}
		lastErr = err
		if !retriable || attempt >= c.retries {
			return nil, lastErr
		}
	}
}

// once issues a single HTTP request. retriable reports whether the
// failure is transient (network error, 503, a 2xx body that is not
// valid JSON, or an event stream that ends before its submitted event):
// everything else — 4xx, decode errors on valid JSON — is final.
func (c *Client) once(ctx context.Context, method, path string, payload []byte, out any, stream bool) (retriable bool, es *eventStream, err error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return false, nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if stream {
		req.Header.Set("Accept", eventStreamType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return ctx.Err() == nil, nil, err // network failure: transient unless we were canceled
	}
	if stream && isEventStream(resp) {
		es := c.newEventStream(resp.Body)
		if err := es.submitted(out); err != nil {
			// Nothing acknowledged the job yet, and resubmitting is
			// safe: submissions are content-addressed.
			resp.Body.Close()
			return ctx.Err() == nil, nil, fmt.Errorf("%s %s: %w", method, path, err)
		}
		return false, es, nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, c.maxBody+1))
	if err != nil {
		// Mirror the transport-error path: a body cut off because the
		// caller's context was canceled mid-read is final, not a
		// transient daemon failure to retry against.
		return ctx.Err() == nil, nil, err
	}
	if int64(len(data)) > c.maxBody {
		return false, nil, fmt.Errorf("%s %s: response body exceeds %d bytes", method, path, c.maxBody)
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
		return resp.StatusCode == http.StatusServiceUnavailable, nil, apiErr
	}
	if out == nil {
		return false, nil, nil
	}
	// A response cut off without a Content-Length (a connection dropped
	// mid-body on a close-delimited response) reads without error. Every
	// body the API answers 2xx with is a JSON object, and a strict prefix
	// of an object is never valid JSON, so this check is what keeps a
	// truncated body from being returned as a result or decoded into a
	// final error. Every call is idempotent, so re-reading is safe.
	if !json.Valid(data) {
		return ctx.Err() == nil, nil, fmt.Errorf("%s %s: response body is not valid JSON (%d bytes, truncated?)", method, path, len(data))
	}
	if raw, ok := out.(*json.RawMessage); ok {
		*raw = append((*raw)[:0], data...)
		return false, nil, nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return false, nil, fmt.Errorf("decoding %s %s response: %w", method, path, err)
	}
	return false, nil, nil
}
