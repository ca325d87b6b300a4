package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"

	"faultroute/api"
	"faultroute/internal/core"
)

// tinyConfig shrinks a run to a few ops per phase.
func tinyConfig() config {
	return config{seed: 3, ops: 8, digestOps: 8, setups: 1, passOps: 2}
}

// tiny holds one untraced and one traced tiny run of every workload,
// shared by the tests that inspect them.
var tiny struct {
	once             sync.Once
	untraced, traced map[string]*report
	err              error
}

func tinyRuns(t *testing.T) (untraced, traced map[string]*report) {
	t.Helper()
	tiny.once.Do(func() {
		tiny.untraced, tiny.traced = map[string]*report{}, map[string]*report{}
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				rep, err := runWorkload(context.Background(), w, tinyConfig(), traced, nil)
				if err != nil {
					tiny.err = fmt.Errorf("%s (traced %v): %w", w.name, traced, err)
					return
				}
				if traced {
					tiny.traced[w.name] = rep
				} else {
					tiny.untraced[w.name] = rep
				}
			}
		}
	})
	if tiny.err != nil {
		t.Fatal(tiny.err)
	}
	return tiny.untraced, tiny.traced
}

type declared struct {
	Name, Unit string
}

// TestTinyRunsEmitDeclaredMetrics runs every workload untraced and
// traced and checks each run is correct and reports exactly the metrics
// BENCHMARK.json declares, with their units.
func TestTinyRunsEmitDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, frbench runs %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, frbench %q", i, w.Name, workloads[i].name)
		}
	}
	untraced, traced := tinyRuns(t)
	for _, w := range workloads {
		for _, c := range []struct {
			rep  *report
			want []declared
		}{{untraced[w.name], decl.EndToEnd}, {traced[w.name], decl.PerLayer}} {
			if !c.rep.Correct || c.rep.Attempted == 0 {
				t.Errorf("%s (traced %v): correct %v after %d ops: %v", w.name, c.rep.Traced, c.rep.Correct, c.rep.Attempted, c.rep.Errors)
			}
			if len(c.rep.Metrics) != len(c.want) {
				t.Errorf("%s (traced %v): %d metrics, BENCHMARK.json declares %d", w.name, c.rep.Traced, len(c.rep.Metrics), len(c.want))
			}
			for _, m := range c.want {
				got, ok := c.rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s (traced %v): metric %s = %+v, want unit %q", w.name, c.rep.Traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestCountingPassMatchesEstimateTrial checks that the counting pass
// replays core.EstimateTrial's accept/reject sequence exactly, so its
// counters describe the conditioning the engine really does.
func TestCountingPassMatchesEstimateTrial(t *testing.T) {
	for _, tc := range []struct {
		graph api.GraphSpec
		p     float64
	}{
		{api.GraphSpec{Family: "hypercube", N: 8}, 0.35},
		{api.GraphSpec{Family: "mesh", D: 2, Side: 8}, 0.6},
		{api.GraphSpec{Family: "complete", N: 24}, 0.08},
		{api.GraphSpec{Family: "kleinberg", D: 2, Side: 8, Seed: 7}, 0.5},
	} {
		plan, err := api.Compile(api.Request{Kind: api.KindEstimate, Estimate: &api.EstimateSpec{
			Graph: tc.graph, P: tc.p, Trials: 1, MaxTries: 20, Seed: 11,
		}})
		if err != nil {
			t.Fatal(err)
		}
		es := *plan.Request.Estimate
		spec, src, dst, err := coreSpec(es)
		if err != nil {
			t.Fatal(err)
		}
		rejected := 0
		for trial := 0; trial < 64; trial++ {
			r := core.EstimateTrial(spec, src, dst, trial, es.MaxTries, es.Seed)
			c := countTrial(spec, src, dst, trial, es.MaxTries, es.Seed)
			if c.err != nil {
				t.Fatalf("%s trial %d: %v", tc.graph.Family, trial, c.err)
			}
			switch {
			case errors.Is(r.Err, core.ErrConditioning):
				if c.accepted || c.tries != es.MaxTries {
					t.Errorf("%s trial %d: EstimateTrial never accepted, counting pass accepted %v after %d tries",
						tc.graph.Family, trial, c.accepted, c.tries)
				}
				rejected += es.MaxTries
			case r.Err != nil:
				t.Fatalf("%s trial %d: %v", tc.graph.Family, trial, r.Err)
			default:
				if !c.accepted || c.tries != r.Rejected+1 {
					t.Errorf("%s trial %d: EstimateTrial rejected %d, counting pass accepted %v after %d tries",
						tc.graph.Family, trial, r.Rejected, c.accepted, c.tries)
				}
				rejected += r.Rejected
			}
			if c.vertices == 0 || c.edges == 0 {
				t.Errorf("%s trial %d: counted %d vertices and %d edges", tc.graph.Family, trial, c.vertices, c.edges)
			}
		}
		if rejected == 0 {
			t.Errorf("%s: no sample was rejected, so the case checks no rejection", tc.graph.Family)
		}
	}
}

// TestTracingChangesNoBytes checks that the traced run's decorators
// (transport, handler, store, router) change no result byte: both runs
// of every workload produce the same digest.
func TestTracingChangesNoBytes(t *testing.T) {
	untraced, traced := tinyRuns(t)
	for _, w := range workloads {
		if u, tr := untraced[w.name].Digest, traced[w.name].Digest; u != tr {
			t.Errorf("%s: traced digest %s, untraced %s", w.name, tr, u)
		}
	}
}
