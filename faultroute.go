// Package faultroute is a library for studying — and performing —
// routing in faulty networks, reproducing "Routing Complexity of Faulty
// Networks" (Angel, Benjamini, Ofek, Wieder; PODC 2004).
//
// The model: a base topology G percolates (every edge fails independently
// with probability 1-p), and a routing algorithm must find an open path
// between two vertices while learning edge states only through probes.
// Local algorithms (Definition 1) may probe only edges touching vertices
// they have already reached; oracle algorithms may probe anything. The
// routing complexity (Definition 2) is the number of distinct edges
// probed, conditioned on the endpoints being connected.
//
// A minimal session:
//
//	g, _ := faultroute.NewHypercube(12)
//	spec := faultroute.Spec{
//		Graph:  g,
//		P:      0.4,
//		Router: faultroute.NewPathFollowRouter(),
//		Mode:   faultroute.ModeLocal,
//	}
//	c, _ := faultroute.NewLocal().Estimate(ctx, spec, 0, g.Antipode(0), 30, 100, 1)
//	fmt.Printf("median probes: %v\n", c.Median)
//
// The package is a facade: the substance lives in the internal packages
// (graph, percolation, probe, route, runner, core, exp, sim, overlay),
// re-exported here as type aliases so downstream code needs a single
// import. Multi-trial estimates shard across a deterministic worker
// pool; results are bit-identical for every worker count.
//
// The execution surface is the Runner API: build an api.Request (the
// one wire-stable submission type of faultroute/api) and run it through
// a Local —
//
//	local := faultroute.NewLocal(faultroute.WithWorkers(8))
//	res, _ := local.Do(ctx, api.Request{Kind: api.KindEstimate, Estimate: &spec})
//
// — or through faultroute/client against a faultrouted daemon; the two
// are interchangeable implementations of api.Runner and return
// byte-identical canonical results. Local.Estimate and
// Local.EstimateBatch are the typed paths for live Specs.
package faultroute

import (
	"faultroute/internal/core"
	"faultroute/internal/exp"
	"faultroute/internal/graph"
	"faultroute/internal/overlay"
	"faultroute/internal/percolation"
	"faultroute/internal/probe"
	"faultroute/internal/route"
	"faultroute/internal/runner"
	"faultroute/internal/sim"
)

// Re-exported fundamental types.
type (
	// Vertex identifies a vertex of a topology; vertex sets are always
	// dense in [0, Order()).
	Vertex = graph.Vertex
	// Graph is the implicit-topology interface every family implements.
	Graph = graph.Graph
	// Metric is implemented by graphs with closed-form distances.
	Metric = graph.Metric
	// Sample is a lazily evaluated percolation configuration.
	Sample = percolation.Sample
	// Components is the exact component structure of a Sample.
	Components = percolation.Components
	// Prober is the query interface routers run against.
	Prober = probe.Prober
	// Router finds open paths by probing.
	Router = route.Router
	// Path is a sequence of vertices joined by open edges.
	Path = route.Path
	// Spec fixes a routing-complexity measurement.
	Spec = core.Spec
	// Outcome is one routing run's result.
	Outcome = core.Outcome
	// Complexity is an empirical routing-complexity distribution.
	Complexity = core.Complexity
	// Mode selects local or oracle probing.
	Mode = core.Mode
	// Fault is a correlated failure model (iid, region, nodes) applied
	// on top of bond percolation via Spec.Fault; the zero value disables
	// it. Each trial draws an independent outage split from the sample
	// seed, so results stay bit-identical at every worker count.
	Fault = sim.Fault
	// Experiment is one reproducible paper experiment (E1..E21).
	Experiment = exp.Experiment
	// ExperimentConfig parameterizes experiment runs.
	ExperimentConfig = exp.Config
	// Table is a rendered experiment result.
	Table = exp.Table
	// Overlay is the hypercube P2P overlay of Section 1.3.
	Overlay = overlay.Overlay
	// LookupResult reports one overlay lookup.
	LookupResult = overlay.LookupResult
	// FloodOutcome reports one distributed-BFS simulation.
	FloodOutcome = sim.FloodOutcome
	// GossipOutcome reports one push-gossip simulation.
	GossipOutcome = sim.GossipOutcome
	// Transcript wraps a Prober with probe recording for audits.
	Transcript = probe.Transcript
	// Replayer is a scripted Prober for crafted configurations.
	Replayer = probe.Replayer
)

// Topology aliases, so constructed graphs keep their extra methods
// (coordinates, antipodes, roots, ...) without exposing internal paths.
type (
	// Hypercube is the n-dimensional Boolean cube H_n.
	Hypercube = graph.Hypercube
	// Mesh is the d-dimensional mesh M^d.
	Mesh = graph.Mesh
	// Torus is the d-dimensional torus.
	Torus = graph.Torus
	// DoubleTree is the double binary tree TT_n.
	DoubleTree = graph.DoubleTree
	// Complete is the complete graph K_n (substrate of G(n,p)).
	Complete = graph.Complete
	// DeBruijn is the binary de Bruijn graph.
	DeBruijn = graph.DeBruijn
	// ShuffleExchange is the binary shuffle-exchange graph.
	ShuffleExchange = graph.ShuffleExchange
	// Butterfly is the n-level butterfly.
	Butterfly = graph.Butterfly
	// CycleMatching is a cycle plus a random perfect matching.
	CycleMatching = graph.CycleMatching
	// Ring is the cycle C_n.
	Ring = graph.Ring
	// Kleinberg is the 2D small-world grid with distance-biased
	// long-range contacts (exponent r).
	Kleinberg = graph.Kleinberg
	// Underlay is implemented by graphs whose lattice distance upper
	// bounds — but need not equal — the true distance (e.g. Kleinberg).
	Underlay = graph.Underlay
)

// Query modes (Definition 1).
const (
	// ModeLocal enforces the locality rule of Definition 1.
	ModeLocal = core.ModeLocal
	// ModeOracle allows probing any edge (Section 5).
	ModeOracle = core.ModeOracle
)

// Failure models for Spec.Fault / api.FailSpec.
const (
	// FailIID kills each vertex independently with probability Rate.
	FailIID = sim.FailIID
	// FailRegion kills Count BFS balls of radius Radius (correlated
	// regional outages).
	FailRegion = sim.FailRegion
	// FailNodes kills Count uniformly random vertices.
	FailNodes = sim.FailNodes
)

// Experiment scales.
const (
	// ScaleQuick runs experiments at CI-friendly sizes.
	ScaleQuick = exp.ScaleQuick
	// ScaleFull runs experiments at the sizes EXPERIMENTS.md records.
	ScaleFull = exp.ScaleFull
)

// Sentinel errors re-exported for errors.Is checks.
var (
	// ErrNoPath reports provably disconnected endpoints.
	ErrNoPath = route.ErrNoPath
	// ErrBudget reports an exhausted probe budget.
	ErrBudget = probe.ErrBudget
	// ErrNotLocal reports a locality violation by a router.
	ErrNotLocal = probe.ErrNotLocal
	// ErrConditioning reports that Estimate could not condition on
	// {src ~ dst} (the event is too rare at the given parameters).
	ErrConditioning = core.ErrConditioning
	// ErrLookupFailed reports an overlay lookup that terminated without
	// reaching the key's owner.
	ErrLookupFailed = overlay.ErrLookupFailed
)

// Topology constructors.

// NewHypercube returns the n-dimensional hypercube, n in [1, 57].
func NewHypercube(n int) (*Hypercube, error) { return graph.NewHypercube(n) }

// NewMesh returns the d-dimensional mesh with the given side length.
func NewMesh(d, side int) (*Mesh, error) { return graph.NewMesh(d, side) }

// NewTorus returns the d-dimensional torus with the given side length.
func NewTorus(d, side int) (*Torus, error) { return graph.NewTorus(d, side) }

// NewDoubleTree returns the double binary tree of depth n.
func NewDoubleTree(n int) (*DoubleTree, error) { return graph.NewDoubleTree(n) }

// NewComplete returns the complete graph K_n.
func NewComplete(n int) (*Complete, error) { return graph.NewComplete(n) }

// NewDeBruijn returns the binary de Bruijn graph on 2^n vertices.
func NewDeBruijn(n int) (*DeBruijn, error) { return graph.NewDeBruijn(n) }

// NewShuffleExchange returns the shuffle-exchange graph on 2^n vertices.
func NewShuffleExchange(n int) (*ShuffleExchange, error) { return graph.NewShuffleExchange(n) }

// NewButterfly returns the butterfly with n edge levels.
func NewButterfly(n int) (*Butterfly, error) { return graph.NewButterfly(n) }

// NewCycleMatching returns a cycle plus a seed-determined random perfect
// matching on n (even) vertices.
func NewCycleMatching(n int, seed uint64) (*CycleMatching, error) {
	return graph.NewCycleMatching(n, seed)
}

// NewRing returns the cycle C_n.
func NewRing(n int) (*Ring, error) { return graph.NewRing(n) }

// NewKleinberg returns the side×side small-world grid with one
// seed-determined long-range contact per vertex, drawn with probability
// proportional to d^-exponent (Kleinberg's model; exponent 2 is the
// navigable sweet spot, 0 is uniform).
func NewKleinberg(side, exponent int, seed uint64) (*Kleinberg, error) {
	return graph.NewKleinberg(side, exponent, seed)
}

// Percolation.

// Percolate returns the Bernoulli(p) bond-percolation sample of g with
// the given seed. Same arguments, same configuration.
func Percolate(g Graph, p float64, seed uint64) Sample {
	return percolation.New(g, p, seed)
}

// PercolateSiteBond returns a mixed failure model: edges fail with
// probability 1-pBond AND nodes fail with probability 1-pSite (an edge
// is open iff its bond and both endpoints survive) — the node-failure
// setting of the Hastad-Leighton-Newman results the paper cites.
func PercolateSiteBond(g Graph, pBond, pSite float64, seed uint64) Sample {
	return percolation.NewSiteBond(g, pBond, pSite, seed)
}

// LabelComponents computes the exact component structure of a sample
// (finite graphs only).
func LabelComponents(s Sample) (*Components, error) { return percolation.Label(s) }

// Probers.

// NewLocalProber returns a Definition 1 prober rooted at source with a
// distinct-probe budget (0 = unlimited).
func NewLocalProber(s Sample, source Vertex, budget int) *probe.Local {
	return probe.NewLocal(s, source, budget)
}

// NewOracleProber returns a Section 5 oracle prober.
func NewOracleProber(s Sample, budget int) *probe.Oracle {
	return probe.NewOracle(s, budget)
}

// Routers.

// NewBFSRouter returns the exhaustive local BFS router.
func NewBFSRouter() Router { return route.NewBFSLocal() }

// NewGreedyRouter returns the best-first metric router.
func NewGreedyRouter() Router { return route.NewGreedyMetric() }

// NewPathFollowRouter returns the waypoint-following router of Theorems
// 3(ii) and 4.
func NewPathFollowRouter() Router { return route.NewPathFollow() }

// NewDoubleTreeOracleRouter returns the Theorem 9 paired-DFS oracle
// router for double trees.
func NewDoubleTreeOracleRouter() Router { return route.NewDoubleTreeOracle() }

// NewGnpLocalRouter returns the Theorem 10 incremental frontier router
// for percolated complete graphs.
func NewGnpLocalRouter(seed uint64) Router { return route.NewGnpLocal(seed) }

// NewGnpOracleRouter returns the Theorem 11 bidirectional oracle router.
func NewGnpOracleRouter(seed uint64) Router { return route.NewGnpBidirectional(seed) }

// NewBidirectionalBFSRouter returns the generic meet-in-the-middle
// oracle router (grows open clusters from both endpoints).
func NewBidirectionalBFSRouter() Router { return route.NewBidirectionalBFS() }

// NewPureGreedyRouter returns memoryless bit-fixing greedy routing (the
// remark after Theorem 3(ii)); it fails with ErrStuck at dead ends
// rather than searching.
func NewPureGreedyRouter() Router { return route.NewPureGreedy() }

// NewGreedyRescueRouter returns greedy routing with a bounded BFS escape
// at dead ends (0 = unlimited escapes).
func NewGreedyRescueRouter(rescueBudget int) Router {
	return route.NewGreedyWithRescue(rescueBudget)
}

// ErrStuck is returned by no-backtracking routers at a dead end; unlike
// ErrNoPath it does not prove disconnection.
var ErrStuck = route.ErrStuck

// NewTranscript wraps a prober with probe recording.
func NewTranscript(pr Prober) *Transcript { return probe.NewTranscript(pr) }

// NewReplayer returns a scripted prober over g whose open edges are
// exactly openEdges; all other edges are closed.
func NewReplayer(g Graph, budget int, openEdges ...[2]Vertex) (*Replayer, error) {
	return probe.NewReplayer(g, budget, openEdges...)
}

// SimulateGossip runs synchronous push rumor-spreading on a percolation
// sample; see sim.Gossip.
func SimulateGossip(s Sample, src, target Vertex, hasTarget bool, maxRounds int, seed uint64) (*GossipOutcome, error) {
	return sim.Gossip(s, src, target, hasTarget, maxRounds, seed)
}

// Measurement.

// Run routes once on the percolation sample derived from seed and
// reports the outcome; see core.Run.
func Run(spec Spec, src, dst Vertex, seed uint64) (Outcome, error) {
	return core.Run(spec, src, dst, seed)
}

// EstimateRequest is one Estimate submission within a batch.
type EstimateRequest = core.Request

// Progress observes completed trials: the engine calls it with the
// number of newly finished trials as a run advances. Hooks must be safe
// for concurrent calls and never affect results — see runner.Progress.
type Progress = runner.Progress

// ValidatePath checks that path is a genuine open path of s from src to
// dst.
func ValidatePath(s Sample, path Path, src, dst Vertex) error {
	return route.Validate(s, path, src, dst)
}

// Experiments.

// Experiments returns the full registry E1..E21 in order.
func Experiments() []Experiment { return exp.All() }

// ExperimentByID looks up one experiment, e.g. "E3".
func ExperimentByID(id string) (Experiment, error) { return exp.ByID(id) }

// Distributed simulation and overlays.

// SimulateDistributedBFS runs the flooding/echo protocol of the
// message-passing simulator on a percolation sample: a synchronous
// flood from src whose echo returns the path once it reaches dst.
// maxEvents caps the delivered messages handled (0 = unlimited).
func SimulateDistributedBFS(s Sample, src, dst Vertex, maxEvents int) (*FloodOutcome, error) {
	return sim.DistributedBFS(s, src, dst, maxEvents)
}

// NewOverlay builds a 2^n-node hypercube DHT with link failure
// probability 1-p.
func NewOverlay(n int, p float64, seed uint64) (*Overlay, error) {
	return overlay.New(n, p, seed)
}
