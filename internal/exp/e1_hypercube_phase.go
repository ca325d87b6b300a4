package exp

import (
	"errors"
	"fmt"
	"math"

	"faultroute/internal/core"
	"faultroute/internal/graph"
	"faultroute/internal/plot"
	"faultroute/internal/route"
	"faultroute/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E1",
		Title: "Hypercube routing phase transition: local probes on H_{n,p}, p = n^-alpha",
		Claim: "Theorem 3: local routing is poly(n) for alpha < 1/2 and blows up (2^Omega(n^beta)) for alpha > 1/2; the transition sits at alpha = 1/2, not at the connectivity threshold.",
		Run:   runE1,
	})
}

func runE1(cfg Config) (*Table, error) {
	n := cfg.qf(10, 14)
	trials := cfg.qf(8, 30)
	alphas := cfg.qfFloats(
		[]float64{0.20, 0.35, 0.50, 0.65, 0.80},
		[]float64{0.10, 0.20, 0.30, 0.40, 0.45, 0.50, 0.55, 0.60, 0.70, 0.80, 0.90},
	)
	g, err := graph.NewHypercube(n)
	if err != nil {
		return nil, err
	}
	// "Polynomial" yardstick: n^3 probes. The table reports the fraction
	// of routed pairs needing more than that; the theorem predicts it
	// jumps from ~0 to ~1 across alpha = 1/2 as n grows.
	polyBudget := float64(n * n * n)

	t := NewTable("E1",
		fmt.Sprintf("Local routing on H_%d,p with p = n^-alpha (path-follow router)", n),
		"probes stay ~poly(n) for alpha<1/2, explode for alpha>1/2",
		"alpha", "p", "pairs", "median", "p90", "max", ">n^3", "frac/E")

	edges := float64(g.Order()) * float64(n) / 2
	type trialResult struct {
		probes float64
		ok     bool
	}
	ps := make([]float64, len(alphas))
	for ai, alpha := range alphas {
		ps[ai] = math.Pow(float64(n), -alpha)
	}
	results, err := parCells(cfg, len(alphas), trials, func(ai, trial int) (trialResult, error) {
		seed := cfg.trialSeed(uint64(ai), uint64(trial))
		u := graph.Vertex(0)
		v := g.Antipode(u)
		res := trialResult{ok: true}
		_, _, runErr, err := core.Condition(bondDraw(g, ps[ai]), u, v, seed, 200,
			localRun(route.NewPathFollow(), u, v, &res.probes))
		if errors.Is(err, core.ErrConditioning) {
			return trialResult{}, nil // pair essentially never connected at this p
		}
		if err != nil {
			return trialResult{}, err
		}
		if runErr != nil {
			return trialResult{}, fmt.Errorf("E1: alpha=%.2f: %w", alphas[ai], runErr)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	var figX, figY []float64
	for ai, alpha := range alphas {
		p := ps[ai]
		var probes []float64
		overPoly := 0
		for _, r := range results[ai] {
			if !r.ok {
				continue
			}
			probes = append(probes, r.probes)
			if r.probes > polyBudget {
				overPoly++
			}
		}
		if len(probes) == 0 {
			t.AddRow(alpha, p, 0, "-", "-", "-", "-", "-")
			continue
		}
		sum, err := stats.Summarize(probes, 0)
		if err != nil {
			return nil, err
		}
		t.AddRow(alpha, p, sum.N, sum.Median, sum.P90, sum.Max,
			fmt.Sprintf("%d/%d", overPoly, sum.N), sum.Median/edges)
		figX = append(figX, alpha)
		figY = append(figY, sum.Median)
	}
	t.AddFigure(Figure{
		Title:  "median local probes vs alpha (log y); the jump is the Theorem 3 transition",
		XLabel: "alpha", YLabel: "median probes", LogY: true,
		Series: []plot.Series{{Name: "median probes", X: figX, Y: figY}},
	})
	t.AddNote("n = %d, antipodal pairs conditioned on u ~ v; poly yardstick n^3 = %.0f; |E| = %.0f", n, polyBudget, edges)
	t.AddNote("connectivity threshold is p ~ 1/n (alpha = 1): routing fails long before connectivity does")
	return t, nil
}
