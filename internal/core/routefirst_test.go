package core

import (
	"errors"
	"fmt"
	"testing"

	"faultroute/internal/graph"
	"faultroute/internal/percolation"
	"faultroute/internal/probe"
	"faultroute/internal/rng"
	"faultroute/internal/route"
	"faultroute/internal/sim"
)

// rejectTally counts the samples the condition-first reference rejects,
// split by whether EstimateTrial's pre-check rejects them or only the
// exact search after a failed route does.
type rejectTally struct{ precheck, afterRoute int }

// conditionFirstTrial is the rejection loop EstimateTrial replaced:
// decide {src ~ dst} with the exact search on every sample, then route
// with Run on the accepted one.
func conditionFirstTrial(spec Spec, src, dst graph.Vertex, trial, maxTries int, seed uint64, tally *rejectTally) TrialResult {
	trialSeed := rng.Combine(seed, uint64(trial))
	var res TrialResult
	for try := 0; try < maxTries; try++ {
		sampleSeed := rng.Combine(trialSeed, uint64(try))
		s := percolation.New(spec.Graph, spec.P, sampleSeed)
		mask := spec.Fault.Sample(spec.Graph, sampleSeed)
		if mask != nil {
			s = s.WithDead(mask)
		}
		conn, err := percolation.Connected(s, src, dst)
		if err == nil && !conn {
			if _, decided, _ := percolation.ConnectedLazy(s, src, dst, precheckExpansions); decided {
				tally.precheck++
			} else {
				tally.afterRoute++
			}
		}
		mask.Release()
		if err != nil {
			res.Err = err
			return res
		}
		if !conn {
			res.Rejected++
			continue
		}
		o, err := Run(spec, src, dst, sampleSeed)
		if err != nil {
			res.Err = err
			return res
		}
		switch {
		case o.Err == nil:
			res.Probes = float64(o.Probes)
			res.Accepted = true
		case errors.Is(o.Err, probe.ErrBudget):
			res.Censored = true
		default:
			res.Err = fmt.Errorf("core: router failed on a connected pair: %w", o.Err)
		}
		return res
	}
	res.Err = fmt.Errorf(
		"%w: {%d ~ %d} did not occur in %d samples at p = %v",
		ErrConditioning, src, dst, maxTries, spec.P)
	return res
}

// invalidPathRouter always answers with a path that starts at dst.
type invalidPathRouter struct{}

func (invalidPathRouter) Name() string { return "invalid-path" }

func (invalidPathRouter) Route(_ probe.Prober, _, dst graph.Vertex) (route.Path, error) {
	return route.Path{dst}, nil
}

// noPathRouter always gives up.
type noPathRouter struct{}

func (noPathRouter) Name() string { return "no-path" }

func (noPathRouter) Route(probe.Prober, graph.Vertex, graph.Vertex) (route.Path, error) {
	return nil, route.ErrNoPath
}

func sameTrialResult(a, b TrialResult) bool {
	if (a.Err == nil) != (b.Err == nil) || a.Err != nil && a.Err.Error() != b.Err.Error() {
		return false
	}
	return a.Probes == b.Probes && a.Accepted == b.Accepted &&
		a.Censored == b.Censored && a.Rejected == b.Rejected
}

// TestEstimateTrialMatchesConditionFirst checks route-first conditioning
// against the condition-first loop it replaced, trial by trial: every
// family with its natural router and bfs-local, at an accept-heavy and
// a reject-heavy p, in local and oracle mode, uncensored and with a
// censoring budget, under region and nodes failure masks, on a graph
// too large to search, and with routers that always fail.
func TestEstimateTrialMatchesConditionFirst(t *testing.T) {
	type family struct {
		g               graph.Graph
		dst             graph.Vertex
		natural         route.Router
		accept, reject  float64
		censoringBudget int
	}
	cube := graph.MustHypercube(10)
	tree := graph.MustDoubleTree(6)
	families := []family{
		{cube, cube.Antipode(0), route.NewPathFollow(), 0.5, 0.15, 8},
		{graph.MustMesh(2, 16), 255, route.NewPathFollow(), 0.75, 0.5, 24},
		{graph.MustTorus(2, 16), 255, route.NewPathFollow(), 0.75, 0.5, 16},
		{graph.MustComplete(64), 63, route.NewGnpLocal(3), 0.1, 0.02, 8},
		{tree, tree.RootB(), route.NewDoubleTreeOracle(), 0.95, 0.75, 12},
		{graph.MustKleinberg(16, 2, 42), 255, route.NewGreedyMetric(), 0.8, 0.45, 16},
	}
	faults := []sim.Fault{
		{Model: sim.FailRegion, Radius: 1, Count: 2, Seed: 5},
		{Model: sim.FailNodes, Count: 3, Seed: 9},
	}
	type variant struct {
		name string
		spec Spec
		dst  graph.Vertex
	}
	var variants []variant
	for _, f := range families {
		for _, r := range []route.Router{f.natural, route.NewBFSLocal()} {
			for _, p := range []float64{f.accept, f.reject} {
				base := Spec{Graph: f.g, P: p, Router: r}
				name := fmt.Sprintf("%s/%s/p=%v", f.g.Name(), r.Name(), p)
				oracle, censor := base, base
				oracle.Mode = ModeOracle
				censor.Budget = f.censoringBudget
				variants = append(variants,
					variant{name + "/local", base, f.dst},
					variant{name + "/oracle", oracle, f.dst},
					variant{fmt.Sprintf("%s/budget=%d", name, censor.Budget), censor, f.dst})
				for _, fault := range faults {
					masked := base
					masked.Fault = fault
					variants = append(variants, variant{name + "/" + fault.Model, masked, f.dst})
				}
			}
		}
		for _, r := range []route.Router{invalidPathRouter{}, noPathRouter{}} {
			variants = append(variants, variant{
				fmt.Sprintf("%s/%s/p=%v", f.g.Name(), r.Name(), f.accept),
				Spec{Graph: f.g, P: f.accept, Router: r}, f.dst,
			})
		}
	}
	huge := graph.MustHypercube(30)
	for _, r := range []route.Router{route.NewPathFollow(), route.NewBFSLocal()} {
		variants = append(variants, variant{huge.Name() + "/" + r.Name(), Spec{Graph: huge, P: 0.5, Router: r}, huge.Antipode(0)})
	}

	const maxTries = 20
	var tally rejectTally
	outcomes := map[string]int{}
	for _, v := range variants {
		for seed := uint64(1); seed <= 3; seed++ {
			for trial := 0; trial < 16; trial++ {
				want := conditionFirstTrial(v.spec, 0, v.dst, trial, maxTries, seed, &tally)
				got := EstimateTrial(v.spec, 0, v.dst, trial, maxTries, seed)
				if !sameTrialResult(got, want) {
					t.Fatalf("%s seed %d trial %d: EstimateTrial = %+v, condition-first = %+v",
						v.name, seed, trial, got, want)
				}
				switch {
				case want.Accepted:
					outcomes["accepted"]++
				case want.Censored:
					outcomes["censored"]++
				case errors.Is(want.Err, ErrConditioning):
					outcomes["never connected"]++
				default:
					outcomes["error"]++
				}
			}
		}
	}
	t.Logf("%d variants: outcomes %v; rejected samples: %d by the pre-check, %d after a failed route",
		len(variants), outcomes, tally.precheck, tally.afterRoute)
	for _, o := range []string{"accepted", "censored", "never connected", "error"} {
		if outcomes[o] == 0 {
			t.Errorf("no trial ended %s", o)
		}
	}
	if tally.precheck == 0 || tally.afterRoute == 0 {
		t.Errorf("want rejections both by the pre-check and after a failed route, got %+v", tally)
	}
}
