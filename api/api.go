// Package api holds the canonical, versioned wire types of the
// faultroute execution surface: the estimate / experiment / percolation
// job specs, their result encodings, job status and progress events, and
// the Runner interface every execution backend implements.
//
// The package is the single codec of the system. The JSON the
// faultrouted daemon caches and serves, the JSON routebench emits with
// -format json, and the JSON the remote client decodes are all produced
// by the types and normalization rules defined here — which is what
// makes the repo-wide byte-identity guarantee checkable: the same
// Request executed in-process (faultroute.Local), through the HTTP
// service (client.Client), or via the CLI yields byte-identical
// canonical bytes.
//
// Two properties are load-bearing and must survive any edit:
//
//  1. Spec structs are hashed (SHA-256 of their encoding/json form,
//     see Compile) to derive content addresses that clients may
//     persist. Field order, names, tags and types of GraphSpec,
//     EstimateSpec, ExperimentSpec and PercolationSpec are therefore
//     wire-frozen; the golden tests in internal/cache pin them.
//  2. Normalization (defaults filled, derived fields resolved,
//     irrelevant graph fields dropped) happens BEFORE hashing, so a
//     sparse request and its fully spelled-out equivalent land on the
//     same address.
package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"faultroute/internal/exp"
)

// Version is the wire-format version; BasePath prefixes every HTTP
// route of the serving layer.
const (
	Version  = "v1"
	BasePath = "/" + Version
)

// Job kinds — the Request.Kind discriminator values.
const (
	KindEstimate    = "estimate"
	KindExperiment  = "experiment"
	KindPercolation = "percolation"
)

// Request is the one submission type of the execution surface: a kind
// discriminator, the matching spec, and an optional execution hint. It
// is the body of POST /v1/jobs and the input of every Runner.
type Request struct {
	// Kind selects the spec: estimate, experiment or percolation.
	Kind        string           `json:"kind"`
	Estimate    *EstimateSpec    `json:"estimate,omitempty"`
	Experiment  *ExperimentSpec  `json:"experiment,omitempty"`
	Percolation *PercolationSpec `json:"percolation,omitempty"`
	// Workers caps the request's trial-level parallelism (0 = the
	// backend's default). It is an execution hint, deliberately excluded
	// from the content address: results are bit-identical at any worker
	// count.
	Workers int `json:"workers,omitempty"`
}

// Result is a completed request's outcome: the canonical result bytes
// plus the kind and content address they are stored under. Body is
// byte-identical across every backend (in-process, HTTP service, CLI)
// for the same normalized request.
type Result struct {
	Kind string          `json:"kind"`
	Key  string          `json:"key"`
	Body json.RawMessage `json:"body"`
}

// Estimate decodes the result of a KindEstimate request submitted
// without a ShardSpec.
func (r Result) Estimate() (EstimateResult, error) {
	var out EstimateResult
	return out, r.decode(KindEstimate, &out)
}

// Shard decodes the result of a KindEstimate request submitted with a
// ShardSpec: the per-trial rows of the sub-range.
func (r Result) Shard() (ShardResult, error) {
	var out ShardResult
	return out, r.decode(KindEstimate, &out)
}

// Table decodes the result of a KindExperiment request.
func (r Result) Table() (TableResult, error) {
	var out TableResult
	return out, r.decode(KindExperiment, &out)
}

// Giant decodes the result of a KindPercolation request submitted with
// Clusters false.
func (r Result) Giant() (GiantResult, error) {
	var out GiantResult
	return out, r.decode(KindPercolation, &out)
}

// Clusters decodes the result of a KindPercolation request submitted
// with Clusters true.
func (r Result) Clusters() (ClusterResult, error) {
	var out ClusterResult
	return out, r.decode(KindPercolation, &out)
}

func (r Result) decode(kind string, out any) error {
	if r.Kind != kind {
		return fmt.Errorf("api: result is %q, not %q", r.Kind, kind)
	}
	// Strict decoding: canonical bodies carry exactly the fields of
	// their result struct, so an unknown field means the caller picked
	// the wrong decoder — e.g. Estimate() on a shard sub-job's rows, or
	// Giant() on a Clusters=true result. Lenient unmarshaling would
	// silently produce zero values there.
	dec := json.NewDecoder(bytes.NewReader(r.Body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		return fmt.Errorf("api: decoding %s result: %w", kind, err)
	}
	return nil
}

// Event is one progress observation of a running request, streamed by
// Runner.Watch. Total is 0 when the request's size is not known up
// front (experiments).
type Event struct {
	State JobState `json:"state"`
	Done  int64    `json:"done"`
	Total int64    `json:"total,omitempty"`
}

// Runner executes requests. Two implementations ship with the module:
// faultroute.Local runs them in-process on the measurement engine;
// client.Client speaks to a faultrouted daemon over HTTP. Both honor
// the same contract, so they are interchangeable: Do returns the
// canonical Result for a normalized request, byte-identical across
// implementations, and Watch is Do with progress events delivered to
// onEvent as the run advances.
//
// Watch's onEvent is called sequentially (implementations serialize
// their own concurrency) but possibly from another goroutine; it must
// not block for long and must never influence the result.
type Runner interface {
	Do(ctx context.Context, req Request) (Result, error)
	Watch(ctx context.Context, req Request, onEvent func(Event)) (Result, error)
}

// Task computes one job's canonical result bytes. It must be a pure
// function of the spec its closure captures, honor ctx cancellation,
// and report forward progress (completed trials) through the supplied
// hook. It is the unit the job engine executes and the body of a
// compiled Plan.
type Task func(ctx context.Context, progress func(delta int)) ([]byte, error)

// JobState is a job's lifecycle position. Queued and Running are
// transient; Done, Failed and Canceled are terminal.
type JobState string

// Job states.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// JobStatus is a point-in-time snapshot of a job — the body of
// GET /v1/jobs/{id} and the Job field of a SubmitResponse.
type JobStatus struct {
	ID    string   `json:"id"`
	Key   string   `json:"key"`
	State JobState `json:"state"`
	// Done counts completed work units (trials); Total is the expected
	// number, or 0 when the job's size is not known up front.
	Done  int64  `json:"done"`
	Total int64  `json:"total,omitempty"`
	Error string `json:"error,omitempty"`

	Created  time.Time `json:"created,omitzero"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
}

// SubmitResponse is the body of POST /v1/jobs.
type SubmitResponse struct {
	Job JobStatus `json:"job"`
	// Cached reports that the result already existed: nothing was
	// enqueued, Result usually carries the bytes, and GET /v1/results
	// answers immediately.
	Cached bool `json:"cached"`
	// Coalesced reports that an identical job was already in flight and
	// this submission attached to it.
	Coalesced bool `json:"coalesced"`
	// Events, when non-empty, advertises the job's Server-Sent-Events
	// progress stream: the path of GET /v1/jobs/{id}/events, where a
	// consumer that submitted without asking for the stream can follow
	// the job instead of reading its status. A daemon that predates the
	// stream omits the field.
	Events string `json:"events,omitempty"`
	// Result, when non-empty, is the job's canonical result bytes
	// without their trailing newline, which a value inside a JSON
	// document cannot keep: Result plus "\n" is byte-identical to
	// GET /v1/results/{key}. The daemon sets it only on a done job whose
	// bytes are still stored; clients fetch the result when it is
	// absent, as they do for a fresh job.
	Result json.RawMessage `json:"result,omitempty"`
}

// ErrorBody is the JSON error envelope of every non-2xx response.
type ErrorBody struct {
	Error string `json:"error"`
}

// Health is the body of GET /v1/healthz: liveness plus cache
// statistics.
type Health struct {
	OK      bool   `json:"ok"`
	Results int    `json:"results"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	// Tiers breaks the result store down per tier, fastest first
	// ("memory", then "disk" when the daemon runs with -cache-dir).
	// Daemons predating tiered stores omit the field.
	Tiers []TierHealth `json:"tiers,omitempty"`
}

// TierHealth is one result-store tier's statistics in Health.
type TierHealth struct {
	// Tier names the tier: "memory" or "disk".
	Tier string `json:"tier"`
	// Entries is the number of resident results.
	Entries int `json:"entries"`
	// Bytes is the resident payload weight.
	Bytes int64 `json:"bytes"`
	// Hits and Misses count the tier's own lookup outcomes; a lookup
	// that falls through memory to disk counts in both tiers.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Evictions counts entries the tier removed: LRU eviction for the
	// memory tier, quarantined corrupt files for the disk tier.
	Evictions uint64 `json:"evictions"`
}

// ExperimentInfo is one machine-readable registry entry of
// GET /v1/experiments; ExperimentParam is one entry of its parameter
// schema.
type (
	ExperimentInfo  = exp.Info
	ExperimentParam = exp.Param
)

// ExperimentList is the body of GET /v1/experiments.
type ExperimentList struct {
	Experiments []ExperimentInfo `json:"experiments"`
}
