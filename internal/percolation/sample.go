// Package percolation implements Bernoulli bond percolation on the
// implicit graphs of package graph: every edge of a base graph G is kept
// ("open") independently with probability p, yielding the random subgraph
// G_p studied throughout the paper.
//
// A Sample is a value, not a materialized subgraph: the state of an edge
// is a pure function of (seed, edge ID), so samples of graphs with 2^n
// vertices cost nothing to create and probing is replayable. On top of
// samples the package provides exact component labeling (union-find),
// an output-sensitive bidirectional connectivity search, and threshold
// estimation — the machinery needed to condition every routing
// experiment on the event {u ~ v}, exactly as Definition 2 requires.
package percolation

import (
	"errors"
	"fmt"

	"faultroute/internal/graph"
	"faultroute/internal/rng"
)

// ErrNotEdge is returned when an edge query names a vertex pair that is
// not an edge of the base graph.
var ErrNotEdge = errors.New("percolation: not an edge of the base graph")

// DeadSet is an externally sampled set of failed vertices layered onto a
// sample — the hook through which the correlated failure models of
// internal/sim (regional outages, targeted node kills) reach the
// percolation layer without this package depending on how the set was
// drawn. A dead vertex behaves exactly like a site-percolation casualty:
// every incident edge is closed.
type DeadSet interface {
	// Dead reports whether vertex v failed.
	Dead(v graph.Vertex) bool
}

// Sample is a percolation sample of a base graph: Bernoulli(p) bond
// percolation, optionally combined with Bernoulli(pSite) site
// percolation (node failures, the model of the Hastad-Leighton-Newman
// line of work the paper cites) and/or an externally drawn DeadSet. An
// edge is open iff its bond coin AND both endpoints' site coins come up
// AND neither endpoint is in the dead set. The zero value is not
// meaningful; construct with New or NewSiteBond.
type Sample struct {
	g     graph.Graph
	p     float64
	pSite float64
	seed  uint64
	dead  DeadSet
}

// siteSalt decorrelates site coins from bond coins under the same seed.
const siteSalt = 0x517e_c0157a17

// New returns the pure bond-percolation sample of g with retention
// probability p and the given seed (all vertices alive). p is clamped
// to [0, 1].
func New(g graph.Graph, p float64, seed uint64) Sample {
	return NewSiteBond(g, p, 1, seed)
}

// NewSiteBond returns a mixed site+bond percolation sample: each edge
// survives with probability pBond and each vertex with probability
// pSite, all independently. Probabilities are clamped to [0, 1].
func NewSiteBond(g graph.Graph, pBond, pSite float64, seed uint64) Sample {
	clamp := func(p float64) float64 {
		if p < 0 {
			return 0
		}
		if p > 1 {
			return 1
		}
		return p
	}
	return Sample{g: g, p: clamp(pBond), pSite: clamp(pSite), seed: seed}
}

// Graph returns the base graph.
func (s Sample) Graph() graph.Graph { return s.g }

// P returns the edge (bond) retention probability.
func (s Sample) P() float64 { return s.p }

// Seed returns the sample seed.
func (s Sample) Seed() uint64 { return s.seed }

// WithDead returns a copy of s with the failure mask attached: vertices
// the mask reports dead are treated as failed on top of whatever the
// sample's own site coins decide. A nil mask detaches.
func (s Sample) WithDead(d DeadSet) Sample {
	s.dead = d
	return s
}

// Dead returns the attached failure mask, or nil.
func (s Sample) Dead() DeadSet { return s.dead }

// Alive reports whether vertex v survived site percolation and the
// attached failure mask (always true for pure bond samples with no
// mask).
func (s Sample) Alive(v graph.Vertex) bool {
	if s.dead != nil && s.dead.Dead(v) {
		return false
	}
	if s.pSite >= 1 {
		return true
	}
	return rng.Coin(rng.Combine(s.seed, siteSalt), uint64(v), s.pSite)
}

// Open reports whether the edge {u, v} is open: its bond survived and
// both endpoints are alive. It returns ErrNotEdge if {u, v} is not an
// edge of the base graph.
func (s Sample) Open(u, v graph.Vertex) (bool, error) {
	id, ok := s.g.EdgeID(u, v)
	if !ok {
		return false, fmt.Errorf("%w: {%d, %d} in %s", ErrNotEdge, u, v, s.g.Name())
	}
	return s.OpenEdgeID(u, v, id), nil
}

// OpenEdgeID is Open for callers that already hold the canonical ID of
// the edge {u, v}; it spares the EdgeID recomputation in hot loops.
// It tosses the bond coin first and, on a pure bond sample with no
// failure mask, answers from it alone: both endpoints are alive there,
// so the liveness checks are skipped. Otherwise it checks Alive(u),
// then Alive(v), after an open bond.
func (s Sample) OpenEdgeID(u, v graph.Vertex, id uint64) bool {
	if !rng.Coin(s.seed, id, s.p) {
		return false
	}
	if s.pSite >= 1 && s.dead == nil {
		return true
	}
	return s.Alive(u) && s.Alive(v)
}

// OpenID reports whether the BOND with the given canonical ID survived.
// For pure bond samples this is the edge state; under site+bond
// percolation it ignores endpoint liveness (use Open), which is why the
// probe layer and component labeling go through endpoint-aware paths.
func (s Sample) OpenID(id uint64) bool {
	return rng.Coin(s.seed, id, s.p)
}
