package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"faultroute/internal/cache"
	"faultroute/internal/core"
	"faultroute/internal/exp"
	"faultroute/internal/graph"
	"faultroute/internal/percolation"
	"faultroute/internal/route"
	"faultroute/internal/runner"
	"faultroute/internal/sim"
)

// This file turns requests into executable plans: validation,
// normalization into the canonical spec, content-address derivation,
// and the task closure every backend runs.
//
// Normalization is what makes the result cache exact: every optional
// field is resolved to its effective value (default router, topology
// default destination, retry budget, seed) BEFORE the spec is hashed,
// so two submissions that mean the same job — however sparsely they
// were written — land on the same content address. Worker counts are
// deliberately not part of any spec: results are bit-identical at any
// worker count, so parallelism is a per-request execution hint
// (Request.Workers), never part of a job's identity.

// Plan is a compiled request: the normalized Request, its content
// address, the expected work-unit total (0 when unknown up front, as
// for experiments), and the Task that computes the canonical result
// bytes. Every backend executes requests through a Plan, which is how
// the byte-identity guarantee holds across them.
type Plan struct {
	// Request is the normalized submission (Workers preserved as the
	// execution hint it is).
	Request Request
	// Key is the content address: hex(SHA-256(kind || 0x00 ||
	// canonicalJSON(normalized spec))).
	Key string
	// Total is the expected number of work units for progress
	// reporting, or 0 when unknown.
	Total int64
	// Task computes the canonical result bytes.
	Task Task
}

// Compile validates and normalizes a request and returns its
// executable plan. Request.Workers caps the task's trial-level
// parallelism (<= 0 selects all cores) and never affects the key or
// the result bytes.
func Compile(req Request) (*Plan, error) {
	var (
		norm  Request
		spec  any
		total int64
		task  Task
		err   error
	)
	norm.Kind, norm.Workers = req.Kind, req.Workers
	switch req.Kind {
	case KindEstimate:
		if req.Estimate == nil {
			return nil, fmt.Errorf("api: kind %s needs an estimate spec", KindEstimate)
		}
		var es EstimateSpec
		es, total, task, err = normalizeEstimate(*req.Estimate, req.Workers)
		norm.Estimate, spec = &es, es
	case KindExperiment:
		if req.Experiment == nil {
			return nil, fmt.Errorf("api: kind %s needs an experiment spec", KindExperiment)
		}
		var xs ExperimentSpec
		xs, total, task, err = normalizeExperiment(*req.Experiment, req.Workers)
		norm.Experiment, spec = &xs, xs
	case KindPercolation:
		if req.Percolation == nil {
			return nil, fmt.Errorf("api: kind %s needs a percolation spec", KindPercolation)
		}
		var ps PercolationSpec
		ps, total, task, err = normalizePercolation(*req.Percolation, req.Workers)
		norm.Percolation, spec = &ps, ps
	default:
		return nil, fmt.Errorf("api: unknown job kind %q (want %s, %s or %s)",
			req.Kind, KindEstimate, KindExperiment, KindPercolation)
	}
	if err != nil {
		return nil, fmt.Errorf("invalid %s spec: %w", req.Kind, err)
	}
	key, err := cache.Key(req.Kind, spec)
	if err != nil {
		return nil, err
	}
	return &Plan{Request: norm, Key: key, Total: total, Task: task}, nil
}

// Normalize returns the request's canonical form — defaults filled in,
// the topology-default destination resolved, irrelevant graph fields
// dropped — without building its task. Two requests that normalize
// equal have the same content address and byte-identical results.
func Normalize(req Request) (Request, error) {
	plan, err := Compile(req)
	if err != nil {
		return Request{}, err
	}
	return plan.Request, nil
}

// Key returns the request's content address. Clients may persist keys
// (the scheme is wire-frozen, pinned by the golden tests in
// internal/cache) and use them against GET /v1/results/{key}.
func Key(req Request) (string, error) {
	plan, err := Compile(req)
	if err != nil {
		return "", err
	}
	return plan.Key, nil
}

// NewGraph is the wire topology registry: it validates a GraphSpec and
// constructs the topology it selects. It is the ONE mapping from wire
// family names to graph implementations — normalization, the daemon and
// the CLIs all build through it, so a family accepted on the wire is
// constructible everywhere.
func NewGraph(gs GraphSpec) (graph.Graph, error) {
	g, _, _, _, err := buildGraph(gs)
	return g, err
}

// family is one registry entry: the build function that validates a
// GraphSpec, constructs the topology, and returns the normalized spec
// alongside the family's default router and destination — plus the
// sample specs the cross-family invariant tests construct. Every family
// MUST carry at least one sample: the graph invariant suite enumerates
// this registry, so a family added here without samples fails the build
// instead of silently escaping the property tests.
type family struct {
	build   func(gs GraphSpec) (g graph.Graph, norm GraphSpec, defaultRouter string, defaultDst graph.Vertex, err error)
	samples []GraphSpec
}

// nFamily builds the registry entry of a family parameterized by N
// alone.
func nFamily(construct func(n int) (graph.Graph, error), router string, dst func(g graph.Graph) graph.Vertex) func(GraphSpec) (graph.Graph, GraphSpec, string, graph.Vertex, error) {
	return func(gs GraphSpec) (graph.Graph, GraphSpec, string, graph.Vertex, error) {
		if gs.N <= 0 {
			return nil, GraphSpec{}, "", 0, fmt.Errorf("graph family %q needs a positive n", gs.Family)
		}
		g, err := construct(gs.N)
		if err != nil {
			return nil, GraphSpec{}, "", 0, err
		}
		return g, GraphSpec{Family: gs.Family, N: gs.N}, router, dst(g), nil
	}
}

// lastVertex is the default destination of most families: the highest
// vertex index.
func lastVertex(g graph.Graph) graph.Vertex { return graph.Vertex(g.Order() - 1) }

// families is the wire topology registry — the ONE mapping from wire
// family names to graph implementations, defaults and test samples.
var families = map[string]family{
	"hypercube": {
		build: nFamily(func(n int) (graph.Graph, error) { return graph.NewHypercube(n) },
			"path-follow", func(g graph.Graph) graph.Vertex { return g.(*graph.Hypercube).Antipode(0) }),
		samples: []GraphSpec{{N: 1}, {N: 5}, {N: 8}},
	},
	"mesh": {
		build:   gridFamily(false),
		samples: []GraphSpec{{D: 1, Side: 7}, {D: 2, Side: 5}, {D: 3, Side: 4}},
	},
	"torus": {
		build:   gridFamily(true),
		samples: []GraphSpec{{D: 1, Side: 5}, {D: 2, Side: 5}, {D: 3, Side: 4}},
	},
	"doubletree": {
		build: nFamily(func(n int) (graph.Graph, error) { return graph.NewDoubleTree(n) },
			"double-tree-oracle", func(g graph.Graph) graph.Vertex { return g.(*graph.DoubleTree).RootB() }),
		samples: []GraphSpec{{N: 1}, {N: 3}, {N: 5}},
	},
	"complete": {
		build: nFamily(func(n int) (graph.Graph, error) { return graph.NewComplete(n) },
			"gnp-local", lastVertex),
		samples: []GraphSpec{{N: 2}, {N: 9}},
	},
	"debruijn": {
		build: nFamily(func(n int) (graph.Graph, error) { return graph.NewDeBruijn(n) },
			"bfs-local", lastVertex),
		samples: []GraphSpec{{N: 3}, {N: 6}},
	},
	"shuffleexchange": {
		build: nFamily(func(n int) (graph.Graph, error) { return graph.NewShuffleExchange(n) },
			"bfs-local", lastVertex),
		samples: []GraphSpec{{N: 3}, {N: 6}},
	},
	"butterfly": {
		build: nFamily(func(n int) (graph.Graph, error) { return graph.NewButterfly(n) },
			"bfs-local", lastVertex),
		samples: []GraphSpec{{N: 1}, {N: 4}},
	},
	"cyclematching": {
		build: func(gs GraphSpec) (graph.Graph, GraphSpec, string, graph.Vertex, error) {
			if gs.N <= 0 {
				return nil, GraphSpec{}, "", 0, fmt.Errorf("graph family %q needs a positive n", gs.Family)
			}
			g, err := graph.NewCycleMatching(gs.N, gs.Seed)
			if err != nil {
				return nil, GraphSpec{}, "", 0, err
			}
			return g, GraphSpec{Family: gs.Family, N: gs.N, Seed: gs.Seed}, "bfs-local", lastVertex(g), nil
		},
		samples: []GraphSpec{{N: 16, Seed: 42}, {N: 100, Seed: 7}},
	},
	"ring": {
		build: nFamily(func(n int) (graph.Graph, error) { return graph.NewRing(n) },
			"path-follow", func(g graph.Graph) graph.Vertex { return graph.Vertex(g.Order() / 2) }),
		samples: []GraphSpec{{N: 3}, {N: 10}},
	},
	"kleinberg": {
		// Kleinberg's 2D small-world lattice: Side is the grid side, D is
		// reused as the clustering exponent r (0 = uniform long-range
		// contacts; r = 2 is the navigable point), Seed draws the
		// contacts. Greedy lattice-distance routing is the family's whole
		// reason to exist, so it is the default router.
		build: func(gs GraphSpec) (graph.Graph, GraphSpec, string, graph.Vertex, error) {
			if gs.Side <= 0 {
				return nil, GraphSpec{}, "", 0, fmt.Errorf("graph family %q needs a positive side", gs.Family)
			}
			g, err := graph.NewKleinberg(gs.Side, gs.D, gs.Seed)
			if err != nil {
				return nil, GraphSpec{}, "", 0, err
			}
			return g, GraphSpec{Family: gs.Family, D: gs.D, Side: gs.Side, Seed: gs.Seed}, "greedy", lastVertex(g), nil
		},
		samples: []GraphSpec{{D: 2, Side: 8, Seed: 42}, {Side: 6, Seed: 7}, {D: 4, Side: 10, Seed: 7}},
	},
}

// gridFamily builds the mesh/torus registry entry (d defaults to 2).
func gridFamily(wrap bool) func(GraphSpec) (graph.Graph, GraphSpec, string, graph.Vertex, error) {
	return func(gs GraphSpec) (graph.Graph, GraphSpec, string, graph.Vertex, error) {
		d := gs.D
		if d == 0 {
			d = 2
		}
		if gs.Side <= 0 {
			return nil, GraphSpec{}, "", 0, fmt.Errorf("graph family %q needs a positive side", gs.Family)
		}
		var (
			g   graph.Graph
			err error
		)
		if wrap {
			g, err = graph.NewTorus(d, gs.Side)
		} else {
			g, err = graph.NewMesh(d, gs.Side)
		}
		if err != nil {
			return nil, GraphSpec{}, "", 0, err
		}
		return g, GraphSpec{Family: gs.Family, D: d, Side: gs.Side}, "path-follow", lastVertex(g), nil
	}
}

// GraphFamilies returns every wire family name in sorted order. The
// graph invariant suite iterates this list, so the registry and the
// property tests can never drift apart.
func GraphFamilies() []string {
	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SampleGraphSpecs returns representative GraphSpecs for every family —
// the instances the cross-family invariant tests construct. Family is
// filled in from the registry key; every family contributes at least
// one spec.
func SampleGraphSpecs() []GraphSpec {
	var specs []GraphSpec
	for _, name := range GraphFamilies() {
		for _, s := range families[name].samples {
			s.Family = name
			specs = append(specs, s)
		}
	}
	return specs
}

// buildGraph resolves a GraphSpec through the family registry.
func buildGraph(gs GraphSpec) (graph.Graph, GraphSpec, string, graph.Vertex, error) {
	fam, ok := families[gs.Family]
	if !ok {
		return nil, GraphSpec{}, "", 0, fmt.Errorf("unknown graph family %q", gs.Family)
	}
	return fam.build(gs)
}

// NewRouter is the wire router registry: it constructs the router a
// spec's Router field names; seed feeds the randomized G(n,p) routers.
// It is the ONE mapping from wire names to router implementations —
// normalization, the daemon and the CLIs all resolve through it, so a
// router accepted on the wire is constructible everywhere.
func NewRouter(name string, seed uint64) (route.Router, error) {
	switch name {
	case "bfs-local":
		return route.NewBFSLocal(), nil
	case "greedy":
		return route.NewGreedyMetric(), nil
	case "path-follow":
		return route.NewPathFollow(), nil
	case "double-tree-oracle":
		return route.NewDoubleTreeOracle(), nil
	case "gnp-local":
		return route.NewGnpLocal(seed), nil
	case "gnp-oracle":
		return route.NewGnpBidirectional(seed), nil
	default:
		return nil, fmt.Errorf("unknown router %q", name)
	}
}

// MaxTrials caps the trials one request may run: an estimate's Trials
// (so every shard's Count too) and a percolation sweep's
// len(Ps) × Trials. The engine allocates a result slot per trial up
// front, so without a cap a ~100-byte submission could make a daemon
// attempt an allocation that kills the process. At the cap an
// estimate's trial rows take 40 MiB.
const MaxTrials = 1 << 20

// Failure-model parameter ceilings: far beyond anything meaningful (a
// count or radius near a graph's order already kills everything), they
// exist so a hostile spec cannot make fault sampling arbitrarily
// expensive.
const (
	maxFailRadius = 1 << 20
	maxFailCount  = 1 << 20
)

// normalizeFail resolves a FailSpec to its canonical form: the default
// model filled in, fields a model does not use rejected rather than
// silently dropped, and — crucially for the cache — nil when the model
// cannot kill anything (iid with Rate 0, region/nodes with Count 0), so
// a no-op FailSpec shares the content address of the same job with no
// FailSpec at all.
func normalizeFail(fs *FailSpec) (*FailSpec, error) {
	if fs == nil {
		return nil, nil
	}
	f := *fs
	if f.Model == "" {
		f.Model = sim.FailIID
	}
	switch f.Model {
	case sim.FailIID:
		if f.Rate < 0 || f.Rate > 1 {
			return nil, fmt.Errorf("fail rate %v outside [0, 1]", f.Rate)
		}
		if f.Radius != 0 || f.Count != 0 {
			return nil, fmt.Errorf("fail model iid uses rate only (got radius %d, count %d)", f.Radius, f.Count)
		}
	case sim.FailRegion:
		if f.Rate != 0 {
			return nil, fmt.Errorf("fail model region uses radius and count, not rate")
		}
		if f.Radius < 0 || f.Radius > maxFailRadius {
			return nil, fmt.Errorf("fail radius %d outside [0, %d]", f.Radius, maxFailRadius)
		}
		if f.Count < 0 || f.Count > maxFailCount {
			return nil, fmt.Errorf("fail count %d outside [0, %d]", f.Count, maxFailCount)
		}
	case sim.FailNodes:
		if f.Rate != 0 || f.Radius != 0 {
			return nil, fmt.Errorf("fail model nodes uses count only (got rate %v, radius %d)", f.Rate, f.Radius)
		}
		if f.Count < 0 || f.Count > maxFailCount {
			return nil, fmt.Errorf("fail count %d outside [0, %d]", f.Count, maxFailCount)
		}
	default:
		return nil, fmt.Errorf("unknown fail model %q (want %s, %s or %s)",
			f.Model, sim.FailIID, sim.FailRegion, sim.FailNodes)
	}
	fault := faultOf(&f)
	if !fault.Enabled() {
		return nil, nil
	}
	return &f, nil
}

// faultOf converts a normalized FailSpec into the engine's model value
// (the zero Fault when fs is nil).
func faultOf(fs *FailSpec) sim.Fault {
	if fs == nil {
		return sim.Fault{}
	}
	return sim.Fault{Model: fs.Model, Rate: fs.Rate, Radius: fs.Radius, Count: fs.Count, Seed: fs.Seed}
}

// normalizeEstimate validates an estimate submission and returns the
// canonical spec plus the job's task and work-unit total.
func normalizeEstimate(es EstimateSpec, workers int) (EstimateSpec, int64, Task, error) {
	var zero EstimateSpec
	g, normGraph, defaultRouter, defaultDst, err := buildGraph(es.Graph)
	if err != nil {
		return zero, 0, nil, err
	}
	norm := es
	norm.Graph = normGraph
	if norm.Router == "" {
		norm.Router = defaultRouter
	}
	if norm.Mode == "" {
		norm.Mode = "local"
	}
	if norm.Mode != "local" && norm.Mode != "oracle" {
		return zero, 0, nil, fmt.Errorf("unknown mode %q (want local or oracle)", norm.Mode)
	}
	if norm.Seed == 0 {
		norm.Seed = 1
	}
	if norm.Trials <= 0 {
		return zero, 0, nil, fmt.Errorf("trials must be positive, got %d", norm.Trials)
	}
	if norm.Trials > MaxTrials {
		return zero, 0, nil, fmt.Errorf("trials %d exceed the cap of %d", norm.Trials, MaxTrials)
	}
	if norm.MaxTries <= 0 {
		norm.MaxTries = 100
	}
	if norm.Budget < 0 {
		return zero, 0, nil, fmt.Errorf("budget must be non-negative, got %d", norm.Budget)
	}
	r, err := NewRouter(norm.Router, norm.Seed)
	if err != nil {
		return zero, 0, nil, err
	}
	if norm.Dst == nil {
		d := uint64(defaultDst)
		norm.Dst = &d
	}
	src, dst := graph.Vertex(norm.Src), graph.Vertex(*norm.Dst)
	if uint64(src) >= g.Order() || uint64(dst) >= g.Order() {
		return zero, 0, nil, fmt.Errorf("endpoints (%d, %d) out of range [0, %d)", src, dst, g.Order())
	}
	nf, err := normalizeFail(norm.Fail)
	if err != nil {
		return zero, 0, nil, err
	}
	norm.Fail = nf
	spec := core.Spec{Graph: g, P: norm.P, Router: r, Budget: norm.Budget, Fault: faultOf(nf)}
	if norm.Mode == "oracle" {
		spec.Mode = core.ModeOracle
	}
	if norm.P < 0 || norm.P > 1 {
		return zero, 0, nil, fmt.Errorf("retention probability %v outside [0, 1]", norm.P)
	}
	if s := norm.Shard; s != nil {
		// A shard names a sub-range of the parent's [0, Trials) schedule;
		// its result is the per-trial rows of that range. Copy the spec so
		// normalization never aliases the submission's ShardSpec.
		// Bounds are checked subtraction-style so a huge Offset+Count can
		// never wrap past the Trials ceiling.
		if s.Offset < 0 || s.Count <= 0 || s.Offset >= norm.Trials || s.Count > norm.Trials-s.Offset {
			return zero, 0, nil, fmt.Errorf("shard [offset %d, count %d) outside the trial range [0, %d)",
				s.Offset, s.Count, norm.Trials)
		}
		shard := *s
		norm.Shard = &shard
		n := norm
		task := func(ctx context.Context, progress func(delta int)) ([]byte, error) {
			rows, err := core.EstimateShardCtx(ctx, spec, src, dst,
				shard.Offset, shard.Count, n.MaxTries, n.Seed, workers, runner.Progress(progress))
			if err != nil {
				return nil, err
			}
			out := ShardResult{Offset: shard.Offset, Rows: make([]TrialRow, len(rows))}
			for i, r := range rows {
				out.Rows[i] = TrialRow{Probes: r.Probes, Accepted: r.Accepted, Censored: r.Censored, Rejected: r.Rejected}
			}
			return encodeResult(out)
		}
		return norm, int64(shard.Count), task, nil
	}
	n := norm // capture the canonical spec, not the submission
	task := func(ctx context.Context, progress func(delta int)) ([]byte, error) {
		c, err := core.EstimateCtx(ctx, spec, src, dst, n.Trials, n.MaxTries, n.Seed, workers, runner.Progress(progress))
		if err != nil {
			return nil, err
		}
		return encodeResult(estimateResultOf(c))
	}
	return norm, int64(norm.Trials), task, nil
}

// estimateResultOf converts the engine's Complexity into the wire
// result — the ONE mapping both the in-process task and MergeShards
// encode through, which is what keeps a distributed merge byte-identical
// to a single-machine run.
func estimateResultOf(c core.Complexity) EstimateResult {
	return EstimateResult{
		Trials:   c.Trials,
		Censored: c.Censored,
		Rejected: c.Rejected,
		Mean:     c.Mean,
		Std:      c.Std,
		Min:      c.Min,
		Q25:      c.Q25,
		Median:   c.Median,
		Q75:      c.Q75,
		P90:      c.P90,
		Max:      c.Max,
	}
}

// MergeShards folds the decoded shard results of one estimate back into
// the parent job's canonical result bytes, with core.MergeTrials
// semantics: rows are concatenated in trial order, so the output is
// byte-identical to executing the unsharded job — on any machine, at any
// shard count, for any assignment of shards to backends. The shards must
// tile a contiguous range starting at trial 0 (any argument order);
// gaps, overlaps and a nonzero start are rejected, because a partial
// merge would silently compute a different distribution.
func MergeShards(shards []ShardResult) ([]byte, error) {
	ordered := make([]ShardResult, len(shards))
	copy(ordered, shards)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Offset < ordered[j].Offset })
	next, total := 0, 0
	for _, s := range ordered {
		if s.Offset != next {
			return nil, fmt.Errorf("api: shard coverage broken at trial %d (next shard starts at %d)", next, s.Offset)
		}
		next += len(s.Rows)
		total += len(s.Rows)
	}
	rows := make([]core.TrialResult, 0, total)
	for _, s := range ordered {
		for _, r := range s.Rows {
			rows = append(rows, core.TrialResult{Probes: r.Probes, Accepted: r.Accepted, Censored: r.Censored, Rejected: r.Rejected})
		}
	}
	c, err := core.MergeTrials(rows)
	if err != nil {
		return nil, err
	}
	return encodeResult(estimateResultOf(c))
}

// normalizeExperiment validates an experiment submission.
func normalizeExperiment(es ExperimentSpec, workers int) (ExperimentSpec, int64, Task, error) {
	var zero ExperimentSpec
	e, err := exp.ByID(es.ID)
	if err != nil {
		return zero, 0, nil, err
	}
	norm := es
	if norm.Seed == 0 {
		norm.Seed = 1
	}
	if norm.Scale == "" {
		norm.Scale = "quick"
	}
	scale := exp.ScaleQuick
	switch norm.Scale {
	case "quick":
	case "full":
		scale = exp.ScaleFull
	default:
		return zero, 0, nil, fmt.Errorf("unknown scale %q (want quick or full)", norm.Scale)
	}
	seed := norm.Seed
	task := func(ctx context.Context, progress func(delta int)) ([]byte, error) {
		tbl, err := e.Run(exp.Config{
			Seed:     seed,
			Scale:    scale,
			Workers:  workers,
			Context:  ctx,
			Progress: progress,
		})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := tbl.RenderJSON(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	// An experiment's trial count is scale- and experiment-specific, so
	// the total is unknown up front; progress still counts trials.
	return norm, 0, task, nil
}

// normalizePercolation validates a percolation submission.
func normalizePercolation(ps PercolationSpec, workers int) (PercolationSpec, int64, Task, error) {
	var zero PercolationSpec
	g, normGraph, _, _, err := buildGraph(ps.Graph)
	if err != nil {
		return zero, 0, nil, err
	}
	norm := ps
	norm.Graph = normGraph
	if len(norm.Ps) == 0 {
		return zero, 0, nil, fmt.Errorf("ps must list at least one retention probability")
	}
	for _, p := range norm.Ps {
		if p < 0 || p > 1 {
			return zero, 0, nil, fmt.Errorf("retention probability %v outside [0, 1]", p)
		}
	}
	if norm.Trials <= 0 {
		return zero, 0, nil, fmt.Errorf("trials must be positive, got %d", norm.Trials)
	}
	// Divide rather than multiply, so the product cannot overflow.
	if norm.Trials > MaxTrials/len(norm.Ps) {
		return zero, 0, nil, fmt.Errorf("%d ps × %d trials exceed the cap of %d trials",
			len(norm.Ps), norm.Trials, MaxTrials)
	}
	if norm.Seed == 0 {
		norm.Seed = 1
	}
	nf, err := normalizeFail(norm.Fail)
	if err != nil {
		return zero, 0, nil, err
	}
	norm.Fail = nf
	// The sample factory threads the failure model into the scans; with
	// no model it degenerates to plain bond percolation, byte-identical
	// to the pre-FailSpec scan path.
	newSample := faultOf(nf).NewSample(g)
	n := norm
	task := func(ctx context.Context, progress func(delta int)) ([]byte, error) {
		if n.Clusters {
			rows, err := percolation.ClusterScanSampledCtx(ctx, g, n.Ps, n.Trials, n.Seed, workers, progress, newSample)
			if err != nil {
				return nil, err
			}
			out := make([]ClusterRow, len(rows))
			for i, r := range rows {
				out[i] = ClusterRow{P: r.P, Theta: r.Theta, Chi: r.Chi, MeanCluster: r.MeanCluster, Clusters: r.Clusters}
			}
			return encodeResult(ClusterResult{Rows: out})
		}
		rows, err := percolation.GiantScanSampledCtx(ctx, g, n.Ps, n.Trials, n.Seed, workers, progress, newSample)
		if err != nil {
			return nil, err
		}
		out := make([]GiantRow, len(rows))
		for i, r := range rows {
			out[i] = GiantRow{P: r.P, GiantFraction: r.GiantFraction, SecondFraction: r.SecondFraction, Components: r.Components}
		}
		return encodeResult(GiantResult{Rows: out})
	}
	return norm, int64(len(norm.Ps) * norm.Trials), task, nil
}

// encodeResult marshals a result payload in its canonical form: compact
// JSON plus a trailing newline (the same convention Table.RenderJSON
// uses), so cached bytes can be byte-compared against CLI output.
func encodeResult(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
