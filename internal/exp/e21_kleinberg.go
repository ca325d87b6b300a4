package exp

import (
	"errors"
	"fmt"

	"faultroute/internal/core"
	"faultroute/internal/graph"
	"faultroute/internal/rng"
	"faultroute/internal/route"
	"faultroute/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E21",
		Title: "Kleinberg small-world routing under faults: the clustering exponent still matters",
		Claim: "Extension: greedy lattice-distance routing on the faulty Kleinberg grid is cheapest near the navigable exponent r = 2 — uniform contacts (r = 0) are long but rarely usable greedily, very local contacts (r = 4) barely shortcut — reproducing Kleinberg's navigability gap in the percolated setting the paper studies.",
		Run:   runE21,
	})
}

func runE21(cfg Config) (*Table, error) {
	side := cfg.qf(12, 16)
	trials := cfg.qf(6, 16)
	exponents := cfg.qfInts([]int{0, 2, 4}, []int{0, 1, 2, 3, 4})
	const p = 0.85

	t := NewTable("E21",
		fmt.Sprintf("Greedy (best-first) local probes across the %dx%d Kleinberg grid at p = %.2f, corner to corner, vs clustering exponent r", side, side, p),
		"probe cost dips around the navigable exponent r = 2",
		"r", "pairs", "median", "q75", "p90")

	u := graph.Vertex(0)
	v := graph.Vertex(uint64(side)*uint64(side) - 1)
	router := route.NewGreedyMetric()

	type trialResult struct {
		probes float64
		ok     bool
	}
	results, err := parCells(cfg, len(exponents), trials, func(ei, trial int) (trialResult, error) {
		r := exponents[ei]
		seed := cfg.trialSeed(uint64(ei), uint64(trial))
		// Each trial draws a fresh contact set: the claim is about the
		// exponent, not about one lucky wiring.
		g, err := graph.NewKleinberg(side, r, rng.Combine(seed, 0xc047ac75))
		if err != nil {
			return trialResult{}, err
		}
		res := trialResult{ok: true}
		_, _, runErr, err := core.Condition(bondDraw(g, p), u, v, seed, 200,
			localRun(router, u, v, &res.probes))
		if errors.Is(err, core.ErrConditioning) {
			return trialResult{}, nil // corners never connected within the tries
		}
		if err != nil {
			return trialResult{}, err
		}
		if runErr != nil {
			return trialResult{}, fmt.Errorf("E21: r=%d: %w", r, runErr)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	for ei, r := range exponents {
		var probes []float64
		for _, res := range results[ei] {
			if res.ok {
				probes = append(probes, res.probes)
			}
		}
		if len(probes) == 0 {
			t.AddRow(r, 0, "-", "-", "-")
			continue
		}
		sum, err := stats.Summarize(probes, 0)
		if err != nil {
			return nil, err
		}
		t.AddRow(r, sum.N, sum.Median, sum.Q75, sum.P90)
	}
	t.AddNote("every trial rebuilds the graph from a trial-split contact seed and conditions on corner ~ corner in the percolated small world")
	t.AddNote("the greedy router steers by the lattice underlay distance (graph.Underlay); long-range edges are probed like any other incident edge")
	return t, nil
}
