package exp

import (
	"errors"
	"fmt"

	"faultroute/internal/core"
	"faultroute/internal/graph"
	"faultroute/internal/route"
	"faultroute/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E7",
		Title: "G(n, c/n): local routing costs Omega(n^2) probes",
		Claim: "Theorem 10: any local routing algorithm on G(n, c/n), c > 1, has expected complexity Omega(n^2); the incremental frontier router realizes Theta(n^2).",
		Run:   runE7,
	})
}

func runE7(cfg Config) (*Table, error) {
	c := 3.0
	ns := cfg.qfInts([]int{100, 200, 400}, []int{250, 500, 1000, 2000})
	trials := cfg.qf(8, 15)

	t := NewTable("E7",
		fmt.Sprintf("Local probes of the frontier router on G(n, %.0f/n)", c),
		"mean probes grow quadratically in n",
		"n", "pairs", "mean", "median", "mean/n^2")

	graphs, err := buildAll(ns, graph.NewComplete)
	if err != nil {
		return nil, err
	}
	type trialResult struct {
		probes float64
		ok     bool
	}
	results, err := parCells(cfg, len(ns), trials, func(ni, trial int) (trialResult, error) {
		n := ns[ni]
		p := c / float64(n)
		u, v := graph.Vertex(0), graph.Vertex(n-1)
		seed := cfg.trialSeed(uint64(ni), uint64(trial))
		res := trialResult{ok: true}
		_, _, runErr, err := core.Condition(bondDraw(graphs[ni], p), u, v, seed, 50,
			localRun(route.NewGnpLocal(seed), u, v, &res.probes))
		if errors.Is(err, core.ErrConditioning) {
			return trialResult{}, nil
		}
		if err != nil {
			return trialResult{}, err
		}
		if runErr != nil {
			return trialResult{}, fmt.Errorf("E7: n=%d: %w", n, runErr)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	xs := make([]float64, 0, len(ns))
	ys := make([]float64, 0, len(ns))
	for ni, n := range ns {
		var probes []float64
		for _, r := range results[ni] {
			if r.ok {
				probes = append(probes, r.probes)
			}
		}
		if len(probes) == 0 {
			t.AddRow(n, 0, "-", "-", "-")
			continue
		}
		sum, err := stats.Summarize(probes, 0)
		if err != nil {
			return nil, err
		}
		t.AddRow(n, sum.N, sum.Mean, sum.Median, sum.Mean/float64(n*n))
		xs = append(xs, float64(n))
		ys = append(ys, sum.Mean)
	}
	if len(xs) >= 2 {
		fit, err := stats.FitPowerLaw(xs, ys)
		if err != nil {
			return nil, err
		}
		t.AddNote("probes ~ n^%.2f (R2 = %.3f); Theorem 10 predicts exponent 2", fit.Exponent, fit.R2)
	}
	t.AddNote("pairs (0, n-1) conditioned on u ~ v by exact labeling")
	return t, nil
}
