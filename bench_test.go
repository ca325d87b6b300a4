package faultroute_test

// One benchmark per experiment of EXPERIMENTS.md's index (E1..E21), each
// running a representative slice of that experiment's workload per
// iteration, plus micro-benchmarks of the hot substrates and of the
// parallel trial engine. Custom metrics (probes/op, msgs/op) report the
// paper's quantities alongside ns/op:
//
//	go test -bench=. -benchmem
//
// The full tables are regenerated by cmd/routebench; these benches track
// the cost and the headline quantity of each experiment over time.

import (
	"context"
	"errors"
	"math"
	"testing"

	"faultroute"
	"faultroute/api"
	"faultroute/internal/core"
	"faultroute/internal/exp"
	"faultroute/internal/graph"
	"faultroute/internal/overlay"
	"faultroute/internal/percolation"
	"faultroute/internal/probe"
	"faultroute/internal/route"
	"faultroute/internal/sim"
)

// routePair routes one conditioned pair per iteration and reports mean
// probes as a custom metric.
func routePair(b *testing.B, g faultroute.Graph, p float64, r faultroute.Router,
	mode faultroute.Mode, src, dst faultroute.Vertex) {
	b.Helper()
	spec := faultroute.Spec{Graph: g, P: p, Router: r, Mode: mode}
	local := faultroute.NewLocal(faultroute.WithWorkers(1))
	var totalProbes float64
	routed := 0
	for i := 0; i < b.N; i++ {
		c, err := local.Estimate(context.Background(), spec, src, dst, 1, 400, uint64(i))
		if errors.Is(err, faultroute.ErrConditioning) {
			continue
		}
		if err != nil {
			b.Fatal(err)
		}
		totalProbes += c.Mean
		routed++
	}
	if routed > 0 {
		b.ReportMetric(totalProbes/float64(routed), "probes/op")
	}
}

// BenchmarkE1HypercubePhase routes an antipodal pair on H_10 just above
// the routing transition (alpha = 0.55), the regime Theorem 3(i) makes
// expensive.
func BenchmarkE1HypercubePhase(b *testing.B) {
	g, err := faultroute.NewHypercube(10)
	if err != nil {
		b.Fatal(err)
	}
	p := math.Pow(10, -0.55)
	routePair(b, g, p, faultroute.NewPathFollowRouter(), faultroute.ModeLocal, 0, g.Antipode(0))
}

// BenchmarkE2HypercubePoly routes the same pair below the transition
// (alpha = 0.3), where Theorem 3(ii) promises poly(n) probes.
func BenchmarkE2HypercubePoly(b *testing.B) {
	g, err := faultroute.NewHypercube(10)
	if err != nil {
		b.Fatal(err)
	}
	p := math.Pow(10, -0.3)
	routePair(b, g, p, faultroute.NewPathFollowRouter(), faultroute.ModeLocal, 0, g.Antipode(0))
}

// BenchmarkE3MeshLinear runs the Theorem 4 router across a distance-40
// pair at p = 0.6 on the 2-d mesh.
func BenchmarkE3MeshLinear(b *testing.B) {
	g, err := faultroute.NewMesh(2, 60)
	if err != nil {
		b.Fatal(err)
	}
	u, err := g.VertexAt(10, 30)
	if err != nil {
		b.Fatal(err)
	}
	v, err := g.VertexAt(50, 30)
	if err != nil {
		b.Fatal(err)
	}
	routePair(b, g, 0.6, faultroute.NewPathFollowRouter(), faultroute.ModeLocal, u, v)
}

// BenchmarkE4MeshCritical is E3's workload at p = 0.53, just above
// criticality, where the Antal-Pisztora constant is large.
func BenchmarkE4MeshCritical(b *testing.B) {
	g, err := faultroute.NewMesh(2, 60)
	if err != nil {
		b.Fatal(err)
	}
	u, err := g.VertexAt(10, 30)
	if err != nil {
		b.Fatal(err)
	}
	v, err := g.VertexAt(50, 30)
	if err != nil {
		b.Fatal(err)
	}
	routePair(b, g, 0.53, faultroute.NewPathFollowRouter(), faultroute.ModeLocal, u, v)
}

// BenchmarkE5DoubleTreeThreshold evaluates the Lemma 6 linkage event at
// the critical point on a depth-16 double tree.
func BenchmarkE5DoubleTreeThreshold(b *testing.B) {
	g, err := graph.NewDoubleTree(16)
	if err != nil {
		b.Fatal(err)
	}
	linked := 0
	for i := 0; i < b.N; i++ {
		s := percolation.New(g, 1/math.Sqrt2, uint64(i))
		ok, err := route.DoubleTreeRootsLinked(s, 0)
		if err != nil {
			b.Fatal(err)
		}
		if ok {
			linked++
		}
	}
	b.ReportMetric(float64(linked)/float64(b.N), "linked/op")
}

// BenchmarkE6DoubleTreeGapLocal measures the exponential side of the
// Theorem 7/9 gap: local BFS between the roots of TT_12 at p = 0.8.
func BenchmarkE6DoubleTreeGapLocal(b *testing.B) {
	g, err := faultroute.NewDoubleTree(12)
	if err != nil {
		b.Fatal(err)
	}
	routePair(b, g, 0.8, faultroute.NewBFSRouter(), faultroute.ModeLocal, g.RootA(), g.RootB())
}

// BenchmarkE6DoubleTreeGapOracle measures the linear side: the Theorem 9
// paired DFS on a depth-24 tree (50M vertices, implicit).
func BenchmarkE6DoubleTreeGapOracle(b *testing.B) {
	g, err := faultroute.NewDoubleTree(24)
	if err != nil {
		b.Fatal(err)
	}
	spec := faultroute.Spec{
		Graph: g, P: 0.85,
		Router: faultroute.NewDoubleTreeOracleRouter(), Mode: faultroute.ModeOracle,
	}
	var probes float64
	routed := 0
	for i := 0; i < b.N; i++ {
		out, err := faultroute.Run(spec, g.RootA(), g.RootB(), uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if out.Err == nil {
			probes += float64(out.Probes)
			routed++
		}
	}
	if routed > 0 {
		b.ReportMetric(probes/float64(routed), "probes/op")
	}
}

// BenchmarkE7GnpLocal measures Theorem 10's Theta(n^2) router on
// G(500, 3/500).
func BenchmarkE7GnpLocal(b *testing.B) {
	g, err := faultroute.NewComplete(500)
	if err != nil {
		b.Fatal(err)
	}
	routePair(b, g, 3.0/500, faultroute.NewGnpLocalRouter(1), faultroute.ModeLocal, 0, 499)
}

// BenchmarkE8GnpOracle measures Theorem 11's Theta(n^{3/2}) router on
// the same model.
func BenchmarkE8GnpOracle(b *testing.B) {
	g, err := faultroute.NewComplete(500)
	if err != nil {
		b.Fatal(err)
	}
	routePair(b, g, 3.0/500, faultroute.NewGnpOracleRouter(1), faultroute.ModeOracle, 0, 499)
}

// BenchmarkE9HypercubeGiant labels one H_11 sample at the AKS critical
// point per iteration.
func BenchmarkE9HypercubeGiant(b *testing.B) {
	g, err := graph.NewHypercube(11)
	if err != nil {
		b.Fatal(err)
	}
	var giant float64
	for i := 0; i < b.N; i++ {
		comps, err := percolation.Label(percolation.New(g, 1.2/11, uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		giant += comps.GiantFraction()
	}
	b.ReportMetric(giant/float64(b.N), "giantfrac/op")
}

// BenchmarkE10CutLemma evaluates the Lemma 5 cut quantity: whether a
// random leaf's far-side branch is open on TT_12.
func BenchmarkE10CutLemma(b *testing.B) {
	g, err := graph.NewDoubleTree(12)
	if err != nil {
		b.Fatal(err)
	}
	open := 0
	for i := 0; i < b.N; i++ {
		s := percolation.New(g, 0.8, uint64(i))
		leaf := g.Leaf(uint64(i) % g.NumLeaves())
		// Walk the B-branch from the leaf to root B.
		h, _ := g.HeapIndex(graph.SideB, leaf)
		cur := leaf
		ok := true
		for h > 1 {
			parent, err := g.VertexAt(graph.SideB, h/2)
			if err != nil {
				b.Fatal(err)
			}
			isOpen, err := s.Open(cur, parent)
			if err != nil {
				b.Fatal(err)
			}
			if !isOpen {
				ok = false
				break
			}
			cur, h = parent, h/2
		}
		if ok {
			open++
		}
	}
	b.ReportMetric(float64(open)/float64(b.N), "branchopen/op")
}

// BenchmarkE11OverlayLookup runs one greedy and one flood lookup on a
// 1024-node DHT between the transitions (p = 0.25).
func BenchmarkE11OverlayLookup(b *testing.B) {
	var msgs float64
	for i := 0; i < b.N; i++ {
		o, err := overlay.New(10, 0.25, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		key := uint64(i) * 7919
		if res, err := o.GreedyLookup(0, key); err == nil {
			msgs += float64(res.Messages)
		}
		if res, err := o.FloodLookup(0, key, 200); err == nil {
			msgs += float64(res.Messages)
		}
	}
	b.ReportMetric(msgs/float64(b.N), "msgs/op")
}

// BenchmarkE12OpenFamilies BFS-routes a fixed pair on the de Bruijn
// graph at p = 0.6 (the exploratory Section 6 sweep's hot path).
func BenchmarkE12OpenFamilies(b *testing.B) {
	g, err := graph.NewDeBruijn(11)
	if err != nil {
		b.Fatal(err)
	}
	r := route.NewBFSLocal()
	var probes float64
	routed := 0
	for i := 0; i < b.N; i++ {
		s := percolation.New(g, 0.6, uint64(i))
		pr := probe.NewLocal(s, 0, 0)
		if _, err := r.Route(pr, 0, graph.Vertex(g.Order()-1)); err != nil {
			if errors.Is(err, route.ErrNoPath) {
				continue
			}
			b.Fatal(err)
		}
		probes += float64(pr.Count())
		routed++
	}
	if routed > 0 {
		b.ReportMetric(probes/float64(routed), "probes/op")
	}
}

// BenchmarkE13SimFidelity runs the distributed flooding protocol once
// per iteration on a fresh sample of each instance, reporting link
// attempts (msgs/op), the protocol's message complexity. The mesh case
// (30x30 at p = 0.6, corner to corner) is the row's original; the
// hypercube and torus are E13's quick-scale instances with E13's pairs.
func BenchmarkE13SimFidelity(b *testing.B) {
	mesh := graph.MustMesh(2, 30)
	cube := graph.MustHypercube(9)
	tor := graph.MustTorus(2, 15)
	for _, in := range []struct {
		name     string
		g        graph.Graph
		p        float64
		src, dst graph.Vertex
	}{
		{"mesh", mesh, 0.6, 0, graph.Vertex(mesh.Order() - 1)},
		{"hypercube", cube, 0.5, 0, cube.Antipode(0)},
		{"torus", tor, 0.55, 0, graph.Vertex(tor.Order()/2 + uint64(tor.Side())/2)},
	} {
		b.Run(in.name, func(b *testing.B) {
			var attempts float64
			for i := 0; i < b.N; i++ {
				s := percolation.New(in.g, in.p, uint64(i))
				out, err := sim.DistributedBFS(s, in.src, in.dst, 0)
				if err != nil {
					b.Fatal(err)
				}
				attempts += float64(out.Attempts)
			}
			b.ReportMetric(attempts/float64(b.N), "msgs/op")
		})
	}
}

// BenchmarkE14RouterAblation routes one conditioned pair with the
// greedy-rescue router at alpha = 0.35 (the ablation's interesting cell).
func BenchmarkE14RouterAblation(b *testing.B) {
	g, err := faultroute.NewHypercube(10)
	if err != nil {
		b.Fatal(err)
	}
	p := math.Pow(10, -0.35)
	routePair(b, g, p, faultroute.NewGreedyRescueRouter(0), faultroute.ModeLocal, 0, g.Antipode(0))
}

// BenchmarkE15PureGreedy runs one memoryless greedy attempt per
// iteration, reporting the success rate.
func BenchmarkE15PureGreedy(b *testing.B) {
	g, err := graph.NewHypercube(10)
	if err != nil {
		b.Fatal(err)
	}
	r := route.NewPureGreedy()
	ok := 0
	for i := 0; i < b.N; i++ {
		s := percolation.New(g, 0.5, uint64(i))
		pr := probe.NewLocal(s, 0, 0)
		if _, err := r.Route(pr, 0, g.Antipode(0)); err == nil {
			ok++
		}
	}
	b.ReportMetric(float64(ok)/float64(b.N), "success/op")
}

// BenchmarkE16Gossip runs one targeted gossip dissemination per
// iteration on a percolated hypercube.
func BenchmarkE16Gossip(b *testing.B) {
	g, err := graph.NewHypercube(10)
	if err != nil {
		b.Fatal(err)
	}
	var attempts float64
	for i := 0; i < b.N; i++ {
		s := percolation.New(g, 0.4, uint64(i))
		out, err := sim.Gossip(s, 0, g.Antipode(0), true, 1<<20, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		attempts += float64(out.Attempts)
	}
	b.ReportMetric(attempts/float64(b.N), "msgs/op")
}

// BenchmarkExperimentQuickE9 runs a full (quick-scale) experiment through
// the harness, tracking end-to-end harness cost.
func BenchmarkExperimentQuickE9(b *testing.B) {
	e, err := exp.ByID("E9")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(exp.Config{Seed: uint64(i), Scale: exp.ScaleQuick}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperimentSuite runs all 21 quick tables at seed 1 per op,
// each as one experiment request through faultroute.Local at the
// default worker count, which is GOMAXPROCS. Run with -cpu 1,2 (or
// 1,N), the ratio of its rows' ns/op is the suite's parallel speedup:
//
//	go test -run '^$' -bench ExperimentSuite -cpu 1,2 .
//
// frbench's experiment-suite workload is the end-to-end path over the
// same tables.
func BenchmarkExperimentSuite(b *testing.B) {
	local := faultroute.NewLocal()
	all := exp.All()
	reqs := make([]api.Request, len(all))
	for i, e := range all {
		reqs[i] = api.Request{Kind: api.KindExperiment, Experiment: &api.ExperimentSpec{ID: e.ID, Seed: 1}}
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, req := range reqs {
			if _, err := local.Do(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- substrate micro-benchmarks ---

// coinSink keeps BenchmarkPercolationCoin's coins from being optimized
// away.
var coinSink int

// BenchmarkPercolationCoin measures the per-edge deterministic coin as
// probes toss it, through Sample.OpenEdgeID: on a pure bond sample (the
// bond coin alone) and on a site+bond sample (the bond coin, then both
// endpoints' site coins after an open bond). Endpoints and IDs are
// arbitrary; OpenEdgeID does not check them.
func BenchmarkPercolationCoin(b *testing.B) {
	g := graph.MustHypercube(20)
	for _, c := range []struct {
		name string
		s    percolation.Sample
	}{
		{"bond", percolation.New(g, 0.5, 1)},
		{"site-bond", percolation.NewSiteBond(g, 0.5, 0.9, 1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			open := 0
			for i := 0; i < b.N; i++ {
				u := graph.Vertex(i & (1<<20 - 1))
				if c.s.OpenEdgeID(u, u^1, uint64(i)) {
					open++
				}
			}
			coinSink = open
		})
	}
}

// BenchmarkConnected measures the conditioning search alone: one
// percolation.Connected call per iteration on a fresh H_13 sample, for
// the antipodal pair. p = 13^-0.3 is the poly-routing regime of E2 and
// frbench's estimate-cube, where both clusters are giant; p = 0.2 is
// E1's regime, where open clusters are sparse and searches from both
// ends meet after a few hundred vertices. After timing, a counting
// replay of up to 64 of the same samples reports the deterministic
// work per call: vertices expanded and edges examined.
func BenchmarkConnected(b *testing.B) {
	g := graph.MustHypercube(13)
	dst := g.Antipode(0)
	for _, c := range []struct {
		name string
		p    float64
	}{{"p=13^-0.3", math.Pow(13, -0.3)}, {"p=0.2", 0.2}} {
		b.Run(c.name, func(b *testing.B) {
			connected := 0
			for i := 0; i < b.N; i++ {
				ok, err := percolation.Connected(percolation.New(g, c.p, uint64(i)), 0, dst)
				if err != nil {
					b.Fatal(err)
				}
				if ok {
					connected++
				}
			}
			b.StopTimer()
			cg := &countingGraph{Graph: g}
			calls := min(b.N, 64)
			for i := 0; i < calls; i++ {
				if _, err := percolation.Connected(percolation.New(cg, c.p, uint64(i)), 0, dst); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(connected)/float64(b.N), "connected/op")
			b.ReportMetric(float64(cg.degree)/float64(calls), "vertices/op")
			b.ReportMetric(float64(cg.edgeID)/float64(calls), "edges/op")
		})
	}
}

// countingGraph counts the adjacency calls a search makes: one Degree
// call per vertex it expands, one EdgeID call per edge whose state it
// examines.
type countingGraph struct {
	graph.Graph
	degree, edgeID int
}

func (g *countingGraph) Degree(v graph.Vertex) int {
	g.degree++
	return g.Graph.Degree(v)
}

func (g *countingGraph) EdgeID(u, v graph.Vertex) (uint64, bool) {
	g.edgeID++
	return g.Graph.EdgeID(u, v)
}

// BenchmarkEstimateTrial measures the conditioned trial — pre-check,
// route, validation and, after a failed route, the exact search — on
// one accept-heavy and two reject-heavy specs. Each op runs 16 trials of
// a fresh seed through core.EstimateShardCtx on one worker, with
// path-follow routing between opposite corners. The accept row is
// frbench's estimate-cube spec, where nearly every first sample is
// accepted; the reject rows draw several samples per trial, most of
// them rejected, so they show what routing on samples that turn out
// disconnected costs.
func BenchmarkEstimateTrial(b *testing.B) {
	cube := graph.MustHypercube(13)
	mesh := graph.MustMesh(2, 64)
	for _, c := range []struct {
		name     string
		g        graph.Graph
		p        float64
		src, dst graph.Vertex
	}{
		{"accept/H13-p=13^-0.3", cube, math.Pow(13, -0.3), 0, cube.Antipode(0)},
		{"reject/H13-p=0.12", cube, 0.12, 0, cube.Antipode(0)},
		{"reject/mesh64-p=0.55", mesh, 0.55, 0, graph.Vertex(mesh.Order() - 1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			spec := core.Spec{Graph: c.g, P: c.p, Router: route.NewPathFollow()}
			const trials = 16
			tries := 0
			for i := 0; i < b.N; i++ {
				rows, err := core.EstimateShardCtx(context.Background(), spec, c.src, c.dst,
					0, trials, 100, uint64(i), 1, nil)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					tries += r.Rejected + 1
				}
			}
			b.ReportMetric(float64(tries)/float64(trials*b.N), "tries/trial")
		})
	}
}

// BenchmarkLabelMesh labels a 100x100 mesh sample per iteration.
func BenchmarkLabelMesh(b *testing.B) {
	g := graph.MustMesh(2, 100)
	for i := 0; i < b.N; i++ {
		if _, err := percolation.Label(percolation.New(g, 0.55, uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBFSLocalHypercube measures the exhaustive router on H_12 at
// p = 0.3.
func BenchmarkBFSLocalHypercube(b *testing.B) {
	g := graph.MustHypercube(12)
	r := route.NewBFSLocal()
	for i := 0; i < b.N; i++ {
		s := percolation.New(g, 0.3, uint64(i))
		pr := probe.NewLocal(s, 0, 0)
		_, err := r.Route(pr, 0, g.Antipode(0))
		if err != nil && !errors.Is(err, route.ErrNoPath) {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyHypercubeFaultFree measures greedy routing on the
// pristine cube (the no-fault degenerate case of the Theorem 3(ii)
// remark).
func BenchmarkGreedyHypercubeFaultFree(b *testing.B) {
	g := graph.MustHypercube(16)
	r := route.NewGreedyMetric()
	s := percolation.New(g, 1, 1)
	for i := 0; i < b.N; i++ {
		pr := probe.NewLocal(s, 0, 0)
		if _, err := r.Route(pr, 0, g.Antipode(0)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnionFind unions a pre-generated edge list per iteration.
func BenchmarkUnionFind(b *testing.B) {
	const n = 1 << 16
	g := graph.MustHypercube(16)
	s := percolation.New(g, 0.2, 9)
	type edge struct{ u, v uint64 }
	var edges []edge
	graph.ForEachEdge(g, func(u, v graph.Vertex, id uint64) bool {
		if s.OpenID(id) {
			edges = append(edges, edge{uint64(u), uint64(v)})
		}
		return true
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uf := percolation.NewUnionFind(n)
		for _, e := range edges {
			uf.Union(e.u, e.v)
		}
	}
}

// benchEstimateWorkers runs one multi-trial Local.Estimate per
// iteration on the parallel engine with the given worker count (0 = all
// cores).
func benchEstimateWorkers(b *testing.B, workers int) {
	b.Helper()
	g := graph.MustHypercube(10)
	spec := faultroute.Spec{
		Graph:  g,
		P:      0.45,
		Router: faultroute.NewPathFollowRouter(),
		Mode:   faultroute.ModeLocal,
	}
	local := faultroute.NewLocal(faultroute.WithWorkers(workers))
	for i := 0; i < b.N; i++ {
		if _, err := local.Estimate(context.Background(), spec, 0, g.Antipode(0), 32, 100, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimate32TrialsSequential vs ...Parallel measure the
// parallel trial engine's speedup on a 32-trial Estimate: the ratio of
// their ns/op is the multicore scaling factor (near-linear up to the
// core count on 4+ core machines; both are bit-identical in output).
func BenchmarkEstimate32TrialsSequential(b *testing.B) { benchEstimateWorkers(b, 1) }

// BenchmarkEstimate32TrialsParallel shards the same 32 trials across
// all cores via a default Local.
func BenchmarkEstimate32TrialsParallel(b *testing.B) { benchEstimateWorkers(b, 0) }

// BenchmarkEstimateBatchSweep pushes a whole 4-p sweep through one
// worker pool in a single Local.EstimateBatch submission — the
// experiment-row workload of the exp harness.
func BenchmarkEstimateBatchSweep(b *testing.B) {
	g := graph.MustHypercube(10)
	ps := []float64{0.35, 0.45, 0.55, 0.7}
	local := faultroute.NewLocal()
	for i := 0; i < b.N; i++ {
		reqs := make([]faultroute.EstimateRequest, len(ps))
		for j, p := range ps {
			reqs[j] = faultroute.EstimateRequest{
				Spec: faultroute.Spec{
					Graph:  g,
					P:      p,
					Router: faultroute.NewPathFollowRouter(),
					Mode:   faultroute.ModeLocal,
				},
				Src: 0, Dst: g.Antipode(0),
				Trials: 8, MaxTries: 100, Seed: uint64(i),
			}
		}
		if _, err := local.EstimateBatch(context.Background(), reqs); err != nil {
			b.Fatal(err)
		}
	}
}
