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

// conditionFirst is the loop Condition replaced: it decides {src ~ dst}
// with the exact search on every sample and runs once, on the first
// connected one. tally splits its rejections as in conditionFirstTrial.
func conditionFirst(draw func(uint64) percolation.Sample, src, dst graph.Vertex, trialSeed uint64, maxTries int,
	run func(percolation.Sample) (route.Path, error), tally *rejectTally) (s percolation.Sample, rejected int, runErr, err error) {
	for try := 0; try < maxTries; try++ {
		s := draw(rng.Combine(trialSeed, uint64(try)))
		conn, err := percolation.Connected(s, src, dst)
		if err != nil {
			return percolation.Sample{}, try, nil, err
		}
		if !conn {
			if _, decided, _ := percolation.ConnectedLazy(s, src, dst, precheckExpansions); decided {
				tally.precheck++
			} else {
				tally.afterRoute++
			}
			continue
		}
		path, runErr := run(s)
		if runErr == nil {
			runErr = route.Validate(s, path, src, dst)
		}
		return s, try, runErr, nil
	}
	return percolation.Sample{}, maxTries, nil, ErrConditioning
}

func sameErr(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// TestConditionMatchesConditionFirst checks Condition against the
// condition-first loop, trial by trial, on the cases the experiment
// suite leans on: site-bond samples whose endpoints can die, a router
// that fails on connected pairs by design (pure greedy), a router that
// returns invalid paths, and a probe budget. Each trial must accept the
// same sample after the same number of rejections, and the run on it
// must report the same probe count and error: a run that fails on a
// connected sample comes back as runErr, never as a rejection.
func TestConditionMatchesConditionFirst(t *testing.T) {
	cube, mesh := graph.MustHypercube(10), graph.MustMesh(2, 24)
	const src = graph.Vertex(0)
	bond := func(g graph.Graph, p float64) func(uint64) percolation.Sample {
		return func(seed uint64) percolation.Sample { return percolation.New(g, p, seed) }
	}
	deadEndpoints := 0
	siteBond := func(g graph.Graph, dst graph.Vertex, p float64) func(uint64) percolation.Sample {
		return func(seed uint64) percolation.Sample {
			s := percolation.NewSiteBond(g, 1, p, seed)
			if !s.Alive(src) || !s.Alive(dst) {
				deadEndpoints++
			}
			return s
		}
	}
	cubeDst, meshDst := cube.Antipode(0), graph.Vertex(mesh.Order()-1)
	variants := []struct {
		name   string
		draw   func(uint64) percolation.Sample
		dst    graph.Vertex
		router route.Router
		budget int
	}{
		{"cube/site-bond/p=0.75", siteBond(cube, cubeDst, 0.75), cubeDst, route.NewPathFollow(), 0},
		{"cube/site-bond/p=0.5", siteBond(cube, cubeDst, 0.5), cubeDst, route.NewPathFollow(), 0},
		{"mesh/site-bond/p=0.7", siteBond(mesh, meshDst, 0.7), meshDst, route.NewPathFollow(), 0},
		{"cube/pure-greedy/p=0.6", bond(cube, 0.6), cubeDst, route.NewPureGreedy(), 0},
		{"cube/pure-greedy/p=0.3", bond(cube, 0.3), cubeDst, route.NewPureGreedy(), 0},
		{"cube/invalid-path/p=0.3", bond(cube, 0.3), cubeDst, invalidPathRouter{}, 0},
		{"mesh/invalid-path/p=0.55", bond(mesh, 0.55), meshDst, invalidPathRouter{}, 0},
		{"cube/budget=12/p=0.3", bond(cube, 0.3), cubeDst, route.NewPathFollow(), 12},
		{"mesh/budget=40/p=0.55", bond(mesh, 0.55), meshDst, route.NewPathFollow(), 40},
	}
	const maxTries = 20
	var tally rejectTally
	outcomes := map[string]int{}
	for _, v := range variants {
		var probes int
		run := func(s percolation.Sample) (route.Path, error) {
			pr := probe.NewLocal(s, src, v.budget)
			defer pr.Release()
			path, err := v.router.Route(pr, src, v.dst)
			probes = pr.Count()
			return path, err
		}
		for seed := uint64(1); seed <= 3; seed++ {
			for trial := 0; trial < 16; trial++ {
				trialSeed := rng.Combine(seed, uint64(trial))
				ws, wRejected, wRunErr, wErr := conditionFirst(v.draw, src, v.dst, trialSeed, maxTries, run, &tally)
				wProbes := probes
				gs, gRejected, gRunErr, gErr := Condition(v.draw, src, v.dst, trialSeed, maxTries, run)
				if gs != ws || gRejected != wRejected || !sameErr(gRunErr, wRunErr) || !sameErr(gErr, wErr) ||
					(gErr == nil && probes != wProbes) {
					t.Fatalf("%s seed %d trial %d: Condition = (seed %d, %d rejected, %d probes, %v, %v), condition-first = (seed %d, %d rejected, %d probes, %v, %v)",
						v.name, seed, trial, gs.Seed(), gRejected, probes, gRunErr, gErr,
						ws.Seed(), wRejected, wProbes, wRunErr, wErr)
				}
				switch {
				case errors.Is(wErr, ErrConditioning):
					outcomes["never connected"]++
				case wRunErr == nil:
					outcomes["accepted"]++
				case errors.Is(wRunErr, route.ErrStuck):
					outcomes["stuck"]++
				case errors.Is(wRunErr, probe.ErrBudget):
					outcomes["censored"]++
				default:
					outcomes["invalid path"]++
				}
			}
		}
	}
	t.Logf("outcomes %v; rejected samples: %d by the pre-check, %d after a failed route; %d draws with a dead endpoint",
		outcomes, tally.precheck, tally.afterRoute, deadEndpoints)
	for _, o := range []string{"accepted", "never connected", "stuck", "censored", "invalid path"} {
		if outcomes[o] == 0 {
			t.Errorf("no trial ended %s", o)
		}
	}
	if tally.precheck == 0 || tally.afterRoute == 0 || deadEndpoints == 0 {
		t.Errorf("want rejections by the pre-check and after a failed route, and dead endpoints; got %+v, %d", tally, deadEndpoints)
	}
}
