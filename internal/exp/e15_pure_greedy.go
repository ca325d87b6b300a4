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
		ID:    "E15",
		Title: "Pure greedy routing on the hypercube: where memoryless bit-fixing dies",
		Claim: "Remark after Theorem 3(ii): greedy 'may work most of the way, [but] in the final steps a more extensive search is required'. Pure greedy's success probability collapses with p; a bounded rescue search extends the range but no bounded repair survives past the routing transition.",
		Run:   runE15,
	})
}

func runE15(cfg Config) (*Table, error) {
	n := cfg.qf(10, 12)
	trials := cfg.qf(40, 150)
	alphas := cfg.qfFloats(
		[]float64{0.10, 0.30, 0.50},
		[]float64{0.05, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60},
	)
	rescueBudget := 4 * n * n

	t := NewTable("E15",
		fmt.Sprintf("Success rate of memoryless routers on H_%d,p, p = n^-alpha (conditioned on u ~ v)", n),
		"pure greedy success decays with alpha even while connectivity is near-certain; rescue with an O(n^2) probe budget extends the range but also collapses approaching alpha = 1/2",
		"alpha", "p", "pairs", "greedy ok%", "ok% CI", "rescue ok%", "greedy hops")

	g, err := graph.NewHypercube(n)
	if err != nil {
		return nil, err
	}
	var figX, figG, figR []float64
	type trialResult struct {
		ok, greedyOK, rescueOK bool
		hops                   float64
	}
	ps := make([]float64, len(alphas))
	for ai, alpha := range alphas {
		ps[ai] = math.Pow(float64(n), -alpha)
	}
	results, err := parCells(cfg, len(alphas), trials, func(ai, trial int) (trialResult, error) {
		p := ps[ai]
		seed := cfg.trialSeed(uint64(ai), uint64(trial))
		u := graph.Vertex(0)
		v := g.Antipode(u)
		// Greedy with rescue conditions the sample; pure greedy fails
		// on connected pairs by design, so it routes on the accepted one.
		s, _, rerr, err := core.Condition(bondDraw(g, p), u, v, seed, 100,
			localRun(route.NewGreedyWithRescue(rescueBudget), u, v, new(float64)))
		if errors.Is(err, core.ErrConditioning) {
			return trialResult{}, nil
		}
		if err != nil {
			return trialResult{}, err
		}
		out := trialResult{ok: true}
		if path, gerr := localRun(route.NewPureGreedy(), u, v, new(float64))(s); gerr == nil {
			out.greedyOK = true
			out.hops = float64(path.Len())
		} else if !errors.Is(gerr, route.ErrStuck) {
			return trialResult{}, gerr
		}
		if rerr == nil {
			out.rescueOK = true
		} else if !errors.Is(rerr, route.ErrStuck) && !errors.Is(rerr, route.ErrNoPath) {
			return trialResult{}, rerr
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for ai, alpha := range alphas {
		p := ps[ai]
		var greedyOK, rescueOK, pairs int
		var hops []float64
		for _, r := range results[ai] {
			if !r.ok {
				continue
			}
			pairs++
			if r.greedyOK {
				greedyOK++
				hops = append(hops, r.hops)
			}
			if r.rescueOK {
				rescueOK++
			}
		}
		if pairs == 0 {
			t.AddRow(alpha, p, 0, "-", "-", "-", "-")
			continue
		}
		_, lo, hi, err := stats.Wilson(greedyOK, pairs, 1.96)
		if err != nil {
			return nil, err
		}
		hopsMean := "-"
		if hs, err := stats.Summarize(hops, 0); err == nil {
			hopsMean = Cell(hs.Mean)
		}
		t.AddRow(alpha, p, pairs,
			100*float64(greedyOK)/float64(pairs),
			fmt.Sprintf("[%.0f,%.0f]", 100*lo, 100*hi),
			100*float64(rescueOK)/float64(pairs),
			hopsMean)
		figX = append(figX, alpha)
		figG = append(figG, 100*float64(greedyOK)/float64(pairs))
		figR = append(figR, 100*float64(rescueOK)/float64(pairs))
	}
	t.AddFigure(Figure{
		Title:  "success rate vs alpha: memoryless greedy vs bounded-rescue greedy",
		XLabel: "alpha", YLabel: "success %",
		Series: []plot.Series{
			{Name: "pure greedy", X: figX, Y: figG},
			{Name: "greedy + O(n^2) rescue", X: figX, Y: figR},
		},
	})
	t.AddNote("rescue budget = 4n^2 = %d probes per escape; successful greedy walks are geodesics (hops = n = %d)", rescueBudget, n)
	t.AddNote("this is the library-level view of E11's DHT result: the overlay's greedy lookup IS this router")
	return t, nil
}
