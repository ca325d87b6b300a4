package exp

import (
	"errors"
	"fmt"
	"math"

	"faultroute/internal/core"
	"faultroute/internal/graph"
	"faultroute/internal/route"
	"faultroute/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E8",
		Title: "G(n, c/n): oracle routing costs Theta(n^{3/2}) probes",
		Claim: "Theorem 11: the bidirectional oracle router routes in O(n^{3/2}) expected probes, and no algorithm does better than Omega(n^{3/2}); oracle beats local by exactly sqrt(n).",
		Run:   runE8,
	})
}

func runE8(cfg Config) (*Table, error) {
	c := 3.0
	ns := cfg.qfInts([]int{100, 200, 400}, []int{250, 500, 1000, 2000, 4000})
	trials := cfg.qf(8, 15)

	t := NewTable("E8",
		fmt.Sprintf("Oracle probes of the bidirectional router on G(n, %.0f/n)", c),
		"mean probes grow as n^{3/2}; the local/oracle ratio grows as sqrt(n)",
		"n", "pairs", "mean", "median", "mean/n^1.5", "local/oracle")

	graphs, err := buildAll(ns, graph.NewComplete)
	if err != nil {
		return nil, err
	}
	type trialResult struct {
		oracle   float64
		ratio    float64
		ok       bool
		hasRatio bool
	}
	results, err := parCells(cfg, len(ns), trials, func(ni, trial int) (trialResult, error) {
		n := ns[ni]
		p := c / float64(n)
		u, v := graph.Vertex(0), graph.Vertex(n-1)
		seed := cfg.trialSeed(uint64(ni), uint64(trial))
		res := trialResult{ok: true}
		s, _, runErr, err := core.Condition(bondDraw(graphs[ni], p), u, v, seed, 50,
			oracleRun(route.NewGnpBidirectional(seed), u, v, &res.oracle))
		if errors.Is(err, core.ErrConditioning) {
			return trialResult{}, nil
		}
		if err != nil {
			return trialResult{}, err
		}
		if runErr != nil {
			return trialResult{}, fmt.Errorf("E8: n=%d: %w", n, runErr)
		}
		// The local comparison is the expensive half; sample it on a
		// subset of trials to keep the sweep affordable.
		if trial < trials/2+1 {
			var local float64
			if _, err := localRun(route.NewGnpLocal(seed), u, v, &local)(s); err != nil {
				return trialResult{}, fmt.Errorf("E8: local n=%d: %w", n, err)
			}
			res.ratio = local / res.oracle
			res.hasRatio = true
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	xs := make([]float64, 0, len(ns))
	ys := make([]float64, 0, len(ns))
	for ni, n := range ns {
		var oracleProbes, ratio []float64
		for _, r := range results[ni] {
			if !r.ok {
				continue
			}
			oracleProbes = append(oracleProbes, r.oracle)
			if r.hasRatio {
				ratio = append(ratio, r.ratio)
			}
		}
		if len(oracleProbes) == 0 {
			t.AddRow(n, 0, "-", "-", "-", "-")
			continue
		}
		sum, err := stats.Summarize(oracleProbes, 0)
		if err != nil {
			return nil, err
		}
		rs, err := stats.Summarize(ratio, 0)
		if err != nil {
			return nil, err
		}
		t.AddRow(n, sum.N, sum.Mean, sum.Median,
			sum.Mean/math.Pow(float64(n), 1.5), rs.Mean)
		xs = append(xs, float64(n))
		ys = append(ys, sum.Mean)
	}
	if len(xs) >= 2 {
		fit, err := stats.FitPowerLaw(xs, ys)
		if err != nil {
			return nil, err
		}
		t.AddNote("probes ~ n^%.2f (R2 = %.3f); Theorem 11 predicts exponent 1.5", fit.Exponent, fit.R2)
	}
	t.AddNote("same conditioned samples as E7; 'local/oracle' is the per-sample probe ratio (Theorems 10/11 predict ~sqrt(n) growth)")
	return t, nil
}
