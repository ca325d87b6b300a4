package api_test

import (
	"reflect"
	"strings"
	"testing"

	"faultroute/api"
)

// estimateReq returns a minimal valid estimate request to perturb.
func estimateReq() api.Request {
	return api.Request{
		Kind: api.KindEstimate,
		Estimate: &api.EstimateSpec{
			Graph:  api.GraphSpec{Family: "hypercube", N: 4},
			P:      0.5,
			Trials: 3,
		},
	}
}

// percolationReq returns a minimal valid percolation request.
func percolationReq() api.Request {
	return api.Request{
		Kind: api.KindPercolation,
		Percolation: &api.PercolationSpec{
			Graph:  api.GraphSpec{Family: "mesh", Side: 4},
			Ps:     []float64{0.3, 0.6},
			Trials: 2,
		},
	}
}

// wantReject compiles req and requires an error mentioning frag.
func wantReject(t *testing.T, req api.Request, frag string) {
	t.Helper()
	if _, err := api.Compile(req); err == nil {
		t.Fatalf("Compile accepted invalid request (wanted error mentioning %q)", frag)
	} else if !strings.Contains(err.Error(), frag) {
		t.Fatalf("Compile error = %q, want it to mention %q", err, frag)
	}
	// Normalize and Key are Compile-backed and must reject identically.
	if _, err := api.Normalize(req); err == nil {
		t.Fatal("Normalize accepted what Compile rejected")
	}
	if _, err := api.Key(req); err == nil {
		t.Fatal("Key accepted what Compile rejected")
	}
}

func TestCompileRejectsPOutsideUnitInterval(t *testing.T) {
	for _, p := range []float64{-0.01, 1.01, 2} {
		req := estimateReq()
		req.Estimate.P = p
		wantReject(t, req, "outside [0, 1]")

		preq := percolationReq()
		preq.Percolation.Ps = []float64{0.5, p}
		wantReject(t, preq, "outside [0, 1]")
	}
}

func TestCompileRejectsUnknownGraphFamily(t *testing.T) {
	req := estimateReq()
	req.Estimate.Graph = api.GraphSpec{Family: "kleinbottle", N: 4}
	wantReject(t, req, "unknown graph family")

	preq := percolationReq()
	preq.Percolation.Graph = api.GraphSpec{Family: "", N: 4}
	wantReject(t, preq, "unknown graph family")
}

func TestCompileRejectsUnknownRouter(t *testing.T) {
	req := estimateReq()
	req.Estimate.Router = "teleport"
	wantReject(t, req, "unknown router")
}

func TestCompileRejectsNonPositiveTrials(t *testing.T) {
	for _, trials := range []int{0, -5} {
		req := estimateReq()
		req.Estimate.Trials = trials
		wantReject(t, req, "trials must be positive")

		preq := percolationReq()
		preq.Percolation.Trials = trials
		wantReject(t, preq, "trials must be positive")
	}
}

// TestCompileCapsTrials pins api.MaxTrials: an estimate (a shard
// included) may ask for at most MaxTrials trials, and a percolation
// sweep for at most MaxTrials samples over all its ps, checked so that
// a product which overflows int is still refused.
func TestCompileCapsTrials(t *testing.T) {
	const maxInt = int(^uint(0) >> 1)
	ps := func(k int) []float64 {
		out := make([]float64, k)
		for i := range out {
			out[i] = float64(i+1) / float64(k+1)
		}
		return out
	}
	for _, c := range []struct {
		name   string
		ps     int // 0: an estimate
		trials int
		ok     bool
	}{
		{"estimate at the cap", 0, api.MaxTrials, true},
		{"estimate over the cap", 0, api.MaxTrials + 1, false},
		{"estimate trials 1<<40", 0, 1 << 40, false},
		{"estimate trials maxInt", 0, maxInt, false},
		{"sweep of 1 at the cap", 1, api.MaxTrials, true},
		{"sweep of 1 over the cap", 1, api.MaxTrials + 1, false},
		{"sweep of 2 at the cap", 2, api.MaxTrials / 2, true},
		{"sweep of 2 over the cap", 2, api.MaxTrials/2 + 1, false},
		{"sweep of 3 under the cap", 3, api.MaxTrials / 3, true},
		{"sweep of 3 over the cap", 3, api.MaxTrials/3 + 1, false},
		{"sweep whose product wraps negative", 2, maxInt/2 + 1, false},
		{"sweep whose product wraps to 0", 4, 1 << 62, false},
		{"sweep whose product wraps to 4", 4, 1<<62 + 1, false},
	} {
		req := estimateReq()
		if c.ps > 0 {
			req = percolationReq()
			req.Percolation.Ps = ps(c.ps)
			req.Percolation.Trials = c.trials
		} else {
			req.Estimate.Trials = c.trials
		}
		if !c.ok {
			wantReject(t, req, "exceed the cap")
			continue
		}
		plan, err := api.Compile(req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if plan.Total > api.MaxTrials {
			t.Fatalf("%s: Total %d over the cap", c.name, plan.Total)
		}
	}
	// A shard of an estimate at the cap compiles; the cap is on the
	// parent's Trials, which bounds every shard.
	req := estimateReq()
	req.Estimate.Trials = api.MaxTrials
	req.Estimate.Shard = &api.ShardSpec{Offset: api.MaxTrials - 5, Count: 5}
	if _, err := api.Compile(req); err != nil {
		t.Fatalf("shard of an estimate at the cap: %v", err)
	}
	req.Estimate.Trials = api.MaxTrials + 1
	wantReject(t, req, "exceed the cap")
}

func TestCompileRejectsBadModeAndScaleStrings(t *testing.T) {
	req := estimateReq()
	req.Estimate.Mode = "clairvoyant"
	wantReject(t, req, "unknown mode")

	xreq := api.Request{
		Kind:       api.KindExperiment,
		Experiment: &api.ExperimentSpec{ID: "E1", Scale: "galactic"},
	}
	wantReject(t, xreq, "unknown scale")
}

func TestCompileRejectsUnknownKindAndMissingSpec(t *testing.T) {
	wantReject(t, api.Request{Kind: "teleport"}, "unknown job kind")
	wantReject(t, api.Request{Kind: api.KindEstimate}, "needs an estimate spec")
	wantReject(t, api.Request{Kind: api.KindExperiment}, "needs an experiment spec")
	wantReject(t, api.Request{Kind: api.KindPercolation}, "needs a percolation spec")
}

func TestCompileRejectsGraphShapeErrors(t *testing.T) {
	req := estimateReq()
	req.Estimate.Graph = api.GraphSpec{Family: "hypercube"} // n missing
	wantReject(t, req, "positive n")

	req = estimateReq()
	req.Estimate.Graph = api.GraphSpec{Family: "mesh"} // side missing
	wantReject(t, req, "positive side")
}

func TestCompileRejectsOutOfRangeEndpoints(t *testing.T) {
	req := estimateReq()
	req.Estimate.Src = 1 << 20 // hypercube n=4 has 16 vertices
	wantReject(t, req, "out of range")
}

func TestCompileRejectsNegativeBudget(t *testing.T) {
	req := estimateReq()
	req.Estimate.Budget = -1
	wantReject(t, req, "budget must be non-negative")
}

// TestNormalizeFillsDefaults checks the canonicalization contract:
// every optional field resolves to its effective value before hashing.
func TestNormalizeFillsDefaults(t *testing.T) {
	norm, err := api.Normalize(estimateReq())
	if err != nil {
		t.Fatal(err)
	}
	es := norm.Estimate
	if es.Router != "path-follow" {
		t.Fatalf("default router = %q, want path-follow (hypercube family default)", es.Router)
	}
	if es.Mode != "local" {
		t.Fatalf("default mode = %q, want local", es.Mode)
	}
	if es.Seed != 1 {
		t.Fatalf("default seed = %d, want 1", es.Seed)
	}
	if es.MaxTries != 100 {
		t.Fatalf("default maxTries = %d, want 100", es.MaxTries)
	}
	if es.Dst == nil || *es.Dst != 15 {
		t.Fatalf("default dst = %v, want antipode 15", es.Dst)
	}
}

// TestNormalizeDropsIrrelevantGraphFields checks a mesh spec cannot be
// split in the cache by a stray n (only d and side survive).
func TestNormalizeDropsIrrelevantGraphFields(t *testing.T) {
	req := percolationReq()
	req.Percolation.Graph.N = 99 // meaningless for a mesh
	norm, err := api.Normalize(req)
	if err != nil {
		t.Fatal(err)
	}
	g := norm.Percolation.Graph
	if g.N != 0 || g.D != 2 || g.Side != 4 {
		t.Fatalf("normalized mesh graph = %+v, want n dropped, d=2, side=4", g)
	}

	clean := percolationReq()
	k1, err := api.Key(req)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := api.Key(clean)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("stray graph field split the content address: %s != %s", k1, k2)
	}
}

// TestNormalizeIdempotent: normalizing a normalized request is the
// identity, and the content address is stable across the round trip —
// the property that makes the result cache exact.
func TestNormalizeIdempotent(t *testing.T) {
	reqs := map[string]api.Request{
		"estimate":    estimateReq(),
		"percolation": percolationReq(),
		"experiment": {
			Kind:       api.KindExperiment,
			Experiment: &api.ExperimentSpec{ID: "E9"},
		},
	}
	for name, req := range reqs {
		t.Run(name, func(t *testing.T) {
			once, err := api.Normalize(req)
			if err != nil {
				t.Fatal(err)
			}
			twice, err := api.Normalize(once)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(once, twice) {
				t.Fatalf("Normalize not idempotent:\nonce:  %+v\ntwice: %+v", once, twice)
			}
			k1, err := api.Key(req)
			if err != nil {
				t.Fatal(err)
			}
			k2, err := api.Key(once)
			if err != nil {
				t.Fatal(err)
			}
			if k1 != k2 {
				t.Fatalf("key changed across normalization: %s != %s", k1, k2)
			}
		})
	}
}
