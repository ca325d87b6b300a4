package main

import (
	"context"
	"fmt"
	"time"

	"faultroute/api"
	"faultroute/internal/core"
	"faultroute/internal/graph"
	"faultroute/internal/percolation"
	"faultroute/internal/probe"
	"faultroute/internal/rng"
	"faultroute/internal/route"
	"faultroute/internal/runner"
	"faultroute/internal/sim"
)

// enginePass holds what the traced run measures by replaying estimate
// requests through the engine's public functions, outside any runner:
// a sequential pass of core.EstimateTrial with the router timed, an
// untimed counting pass of the conditioning search, core.MergeTrials,
// and core.EstimateShardCtx at the default worker count.
type enginePass struct {
	trials, accepted, tries int
	probes                  float64
	vertices, edges         int64
	trialNs, routeNs        int64
	mergeNs, parallelNs     int64
	merges, workers         int
}

// runEnginePass replays each request's trials. It fails when the
// counting pass and core.EstimateTrial disagree about any trial's
// accept/reject sequence.
func runEnginePass(ctx context.Context, reqs []api.Request) (enginePass, error) {
	ep := enginePass{workers: runner.DefaultWorkers()}
	for _, req := range reqs {
		plan, err := api.Compile(req)
		if err != nil {
			return ep, err
		}
		es := *plan.Request.Estimate
		spec, src, dst, err := coreSpec(es)
		if err != nil {
			return ep, err
		}
		timed := &timedRouter{Router: spec.Router}
		tspec := spec
		tspec.Router = timed
		rows := make([]core.TrialResult, es.Trials)
		for t := range rows {
			start := time.Now()
			rows[t] = core.EstimateTrial(tspec, src, dst, t, es.MaxTries, es.Seed)
			ep.trialNs += time.Since(start).Nanoseconds()
			r := rows[t]
			if r.Err != nil {
				return ep, fmt.Errorf("engine pass: trial %d: %w", t, r.Err)
			}
			c := countTrial(spec, src, dst, t, es.MaxTries, es.Seed)
			if c.err != nil {
				return ep, c.err
			}
			if !c.accepted || c.tries != r.Rejected+1 {
				return ep, fmt.Errorf("engine pass: trial %d: counting pass took %d tries (accepted %v), EstimateTrial rejected %d",
					t, c.tries, c.accepted, r.Rejected)
			}
			ep.trials++
			ep.tries += c.tries
			ep.vertices += c.vertices
			ep.edges += c.edges
			if r.Accepted {
				ep.accepted++
				ep.probes += r.Probes
			}
		}
		ep.routeNs += timed.ns
		start := time.Now()
		if _, err := core.MergeTrials(rows); err != nil {
			return ep, err
		}
		ep.mergeNs += time.Since(start).Nanoseconds()
		ep.merges++
		start = time.Now()
		if _, err := core.EstimateShardCtx(ctx, spec, src, dst, 0, es.Trials, es.MaxTries, es.Seed, ep.workers, nil); err != nil {
			return ep, err
		}
		ep.parallelNs += time.Since(start).Nanoseconds()
	}
	return ep, nil
}

// coreSpec builds the engine spec a normalized estimate spec compiles to.
func coreSpec(es api.EstimateSpec) (core.Spec, graph.Vertex, graph.Vertex, error) {
	g, err := api.NewGraph(es.Graph)
	if err != nil {
		return core.Spec{}, 0, 0, err
	}
	r, err := api.NewRouter(es.Router, es.Seed)
	if err != nil {
		return core.Spec{}, 0, 0, err
	}
	spec := core.Spec{Graph: g, P: es.P, Router: r, Budget: es.Budget}
	if es.Mode == "oracle" {
		spec.Mode = core.ModeOracle
	}
	if f := es.Fail; f != nil {
		spec.Fault = sim.Fault{Model: f.Model, Rate: f.Rate, Radius: f.Radius, Count: f.Count, Seed: f.Seed}
	}
	return spec, graph.Vertex(es.Src), graph.Vertex(*es.Dst), nil
}

// timedRouter adds the time spent in Route to ns. The pass that uses it
// is sequential.
type timedRouter struct {
	route.Router
	ns int64
}

func (r *timedRouter) Route(pr probe.Prober, src, dst graph.Vertex) (route.Path, error) {
	start := time.Now()
	path, err := r.Router.Route(pr, src, dst)
	r.ns += time.Since(start).Nanoseconds()
	return path, err
}

// countingGraph counts the adjacency calls percolation.Connected makes:
// one Degree call per vertex it expands, one EdgeID call per edge whose
// state it examines.
type countingGraph struct {
	graph.Graph
	degree, edgeID int64
}

func (g *countingGraph) Degree(v graph.Vertex) int {
	g.degree++
	return g.Graph.Degree(v)
}

func (g *countingGraph) EdgeID(u, v graph.Vertex) (uint64, bool) {
	g.edgeID++
	return g.Graph.EdgeID(u, v)
}

// trialCount is the conditioning work of one trial.
type trialCount struct {
	tries           int
	accepted        bool
	vertices, edges int64
	err             error
}

// countTrial replays core.EstimateTrial's rejection loop for one trial
// (the same per-try sample seeds and failure masks) with
// percolation.Connected running on a countingGraph. It stops at the
// first accepted sample, so tries is the trial's rejections plus one.
func countTrial(spec core.Spec, src, dst graph.Vertex, trial, maxTries int, seed uint64) trialCount {
	cg := &countingGraph{Graph: spec.Graph}
	trialSeed := rng.Combine(seed, uint64(trial))
	var c trialCount
	for try := 0; try < maxTries; try++ {
		sampleSeed := rng.Combine(trialSeed, uint64(try))
		s := percolation.New(cg, spec.P, sampleSeed)
		mask := spec.Fault.Sample(spec.Graph, sampleSeed)
		if mask != nil {
			s = s.WithDead(mask)
		}
		conn, err := percolation.Connected(s, src, dst)
		mask.Release()
		c.tries++
		if err != nil {
			c.err = err
			break
		}
		if conn {
			c.accepted = true
			break
		}
	}
	c.vertices, c.edges = cg.degree, cg.edgeID
	return c
}
