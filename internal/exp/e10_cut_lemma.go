package exp

import (
	"fmt"

	"faultroute/internal/core"
	"faultroute/internal/graph"
	"faultroute/internal/percolation"
	"faultroute/internal/rng"
	"faultroute/internal/route"
	"faultroute/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E10",
		Title: "The Lower Bound Lemma, measured: cut-edge hit probability eta on TT_n",
		Claim: "Lemma 5 / Theorem 7: with S the second tree, each cut (leaf) edge connects to root B within S with probability eta = p^n, so a local router needs ~p^-n probes; both quantities are measured directly.",
		Run:   runE10,
	})
}

func runE10(cfg Config) (*Table, error) {
	p := 0.8
	depths := cfg.qfInts([]int{4, 6, 8}, []int{4, 6, 8, 10, 12})
	trials := cfg.qf(300, 2000)
	routeTrials := cfg.qf(10, 25)

	t := NewTable("E10",
		fmt.Sprintf("Cut-edge analysis on TT_n at p = %.2f", p),
		"measured branch-open frequency matches eta = p^n; measured local probes sit above the a*p^-n floor",
		"depth", "eta = p^n", "measured eta", "p^-n", "local median", "local/floor")

	trees, err := buildAll(depths, graph.NewDoubleTree)
	if err != nil {
		return nil, err
	}
	leaves := make([][]graph.Vertex, len(depths))
	for di, g := range trees {
		// The eta trials' leaf choices come from one sequential stream
		// per depth, drawn up front, so the sequence is identical at any
		// worker count; the per-trial percolation sampling is what fans
		// out.
		str := rng.NewStream(rng.Combine(cfg.Seed, uint64(1000+di)))
		leaves[di] = make([]graph.Vertex, trials)
		for trial := range leaves[di] {
			leaves[di][trial] = g.Leaf(str.Uint64n(g.NumLeaves()))
		}
	}

	// Measure eta: the probability a uniformly chosen leaf's B-branch
	// (its unique path to root B within S) is fully open.
	hitResults, err := parCells(cfg, len(depths), trials, func(di, trial int) (bool, error) {
		g := trees[di]
		s := percolation.New(g, p, cfg.trialSeed(uint64(di), uint64(trial)))
		return branchOpen(g, s, leaves[di][trial]), nil
	})
	if err != nil {
		return nil, err
	}

	// Measure the local routing cost between the roots, conditioned on
	// connectivity (exact labeling at these depths).
	type trialResult struct {
		probes float64
		ok     bool
	}
	routeResults, err := parCells(cfg, len(depths), routeTrials, func(di, trial int) (trialResult, error) {
		g := trees[di]
		seed := cfg.trialSeed(uint64(100+di), uint64(trial))
		res := trialResult{ok: true}
		_, _, runErr, err := core.Condition(bondDraw(g, p), g.RootA(), g.RootB(), seed, 400,
			localRun(route.NewBFSLocal(), g.RootA(), g.RootB(), &res.probes))
		if err != nil {
			return trialResult{}, nil
		}
		if runErr != nil {
			return trialResult{}, fmt.Errorf("E10: depth %d: %w", depths[di], runErr)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}

	for di, d := range depths {
		hits := 0
		for _, h := range hitResults[di] {
			if h {
				hits++
			}
		}
		measured := float64(hits) / float64(trials)
		var probes []float64
		for _, r := range routeResults[di] {
			if r.ok {
				probes = append(probes, r.probes)
			}
		}
		eta := pow(p, d)
		floor := 1 / eta
		if len(probes) == 0 {
			t.AddRow(d, eta, measured, floor, "-", "-")
			continue
		}
		sum, err := stats.Summarize(probes, 0)
		if err != nil {
			return nil, err
		}
		t.AddRow(d, eta, measured, floor, sum.Median, sum.Median/floor)
	}
	t.AddNote("'local/floor' >= some constant a across depths is exactly the Theorem 7 statement; the BFS router in fact exceeds the floor by a growing factor ((2p)^n vs p^-n)")
	return t, nil
}

// branchOpen reports whether the unique path within tree B from leaf up
// to root B is fully open.
func branchOpen(g *graph.DoubleTree, s percolation.Sample, leaf graph.Vertex) bool {
	h, ok := g.HeapIndex(graph.SideB, leaf)
	if !ok {
		return false
	}
	cur := leaf
	for h > 1 {
		parentHeap := h / 2
		parent, err := g.VertexAt(graph.SideB, parentHeap)
		if err != nil {
			return false
		}
		open, err := s.Open(cur, parent)
		if err != nil || !open {
			return false
		}
		cur = parent
		h = parentHeap
	}
	return true
}

// pow is a tiny integer power helper.
func pow(p float64, d int) float64 {
	out := 1.0
	for i := 0; i < d; i++ {
		out *= p
	}
	return out
}
