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
		ID:    "E2",
		Title: "Hypercube sub-transition scaling: probes vs n at fixed alpha < 1/2",
		Claim: "Theorem 3(ii): for alpha < 1/2 there is k = k(alpha) with comp(A) < n^k w.h.p.; probes grow polynomially in n.",
		Run:   runE2,
	})
}

func runE2(cfg Config) (*Table, error) {
	alphas := []float64{0.25, 0.40}
	ns := cfg.qfInts([]int{8, 9, 10, 11}, []int{9, 10, 11, 12, 13, 14})
	trials := cfg.qf(8, 25)

	t := NewTable("E2",
		"Mean local probes of the path-follow router on H_{n,p}, p = n^-alpha",
		"log-log slope (the empirical k) should be a small constant, growing with alpha",
		"alpha", "n", "p", "pairs", "mean", "median", "p90")

	type trialResult struct {
		probes float64
		ok     bool
	}
	graphs, err := buildAll(ns, graph.NewHypercube)
	if err != nil {
		return nil, err
	}
	// Cell ai*len(ns)+ni is (alphas[ai], ns[ni]); its seeds keep the
	// cell ID ai*100+ni.
	results, err := parCells(cfg, len(alphas)*len(ns), trials, func(c, trial int) (trialResult, error) {
		ai, ni := c/len(ns), c%len(ns)
		g, n, alpha := graphs[ni], ns[ni], alphas[ai]
		p := math.Pow(float64(n), -alpha)
		seed := cfg.trialSeed(uint64(ai*100+ni), uint64(trial))
		u := graph.Vertex(0)
		v := g.Antipode(u)
		res := trialResult{ok: true}
		_, _, runErr, err := core.Condition(bondDraw(g, p), u, v, seed, 100,
			localRun(route.NewPathFollow(), u, v, &res.probes))
		if errors.Is(err, core.ErrConditioning) {
			return trialResult{}, nil
		}
		if err != nil {
			return trialResult{}, err
		}
		if runErr != nil {
			return trialResult{}, fmt.Errorf("E2: n=%d alpha=%.2f: %w", n, alpha, runErr)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	for ai, alpha := range alphas {
		xs := make([]float64, 0, len(ns))
		ys := make([]float64, 0, len(ns))
		for ni, n := range ns {
			p := math.Pow(float64(n), -alpha)
			var probes []float64
			for _, r := range results[ai*len(ns)+ni] {
				if r.ok {
					probes = append(probes, r.probes)
				}
			}
			if len(probes) == 0 {
				continue
			}
			sum, err := stats.Summarize(probes, 0)
			if err != nil {
				return nil, err
			}
			t.AddRow(alpha, n, p, sum.N, sum.Mean, sum.Median, sum.P90)
			xs = append(xs, float64(n))
			ys = append(ys, sum.Mean)
		}
		if len(xs) >= 2 {
			fit, err := stats.FitPowerLaw(xs, ys)
			if err != nil {
				return nil, err
			}
			t.AddNote("alpha = %.2f: probes ~ n^%.2f (R2 = %.3f) — the empirical exponent k(alpha)",
				alpha, fit.Exponent, fit.R2)
		}
	}
	t.AddNote("antipodal pairs conditioned on u ~ v; theorem guarantees k(alpha) = O(1/(1-2alpha))")
	return t, nil
}
