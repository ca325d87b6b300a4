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
		ID:    "E14",
		Title: "Ablation: router design choices on the percolated hypercube",
		Claim: "Design-choice study (EXPERIMENTS.md): waypoint-following vs best-first greedy vs exhaustive BFS vs greedy+rescue. All complete routers agree on reachability; they differ in constants, and no choice escapes the Theorem 3(i) blow-up past alpha = 1/2.",
		Run:   runE14,
	})
}

func runE14(cfg Config) (*Table, error) {
	n := cfg.qf(10, 12)
	trials := cfg.qf(8, 20)
	alphas := cfg.qfFloats([]float64{0.30, 0.60}, []float64{0.20, 0.35, 0.50, 0.65})
	routers := []route.Router{
		route.NewPathFollow(),
		route.NewGreedyMetric(),
		route.NewGreedyWithRescue(0),
		route.NewBFSLocal(),
	}

	t := NewTable("E14",
		fmt.Sprintf("Mean local probes on H_%d,p by router, p = n^-alpha (same conditioned samples)", n),
		"every complete router blows up past alpha = 1/2; below it, informed routers beat blind BFS by large constants",
		"alpha", "p", "pairs", "path-follow", "greedy", "greedy-rescue", "bfs-local")

	g, err := graph.NewHypercube(n)
	if err != nil {
		return nil, err
	}
	type trialResult struct {
		probes []float64 // one entry per router
		ok     bool
	}
	ps := make([]float64, len(alphas))
	for ai, alpha := range alphas {
		ps[ai] = math.Pow(float64(n), -alpha)
	}
	results, err := parCells(cfg, len(alphas), trials, func(ai, trial int) (trialResult, error) {
		alpha, p := alphas[ai], ps[ai]
		seed := cfg.trialSeed(uint64(ai), uint64(trial))
		u := graph.Vertex(0)
		v := g.Antipode(u)
		out := trialResult{probes: make([]float64, len(routers)), ok: true}
		// Path-follow, the router most likely to succeed, conditions
		// the sample; the others route on the accepted one.
		s, _, runErr, err := core.Condition(bondDraw(g, p), u, v, seed, 200,
			localRun(routers[0], u, v, &out.probes[0]))
		if errors.Is(err, core.ErrConditioning) {
			return trialResult{}, nil
		}
		if err != nil {
			return trialResult{}, err
		}
		for ri, r := range routers {
			if ri > 0 {
				_, runErr = localRun(r, u, v, &out.probes[ri])(s)
			}
			if runErr != nil {
				return trialResult{}, fmt.Errorf("E14: %s at alpha=%.2f: %w", r.Name(), alpha, runErr)
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for ai, alpha := range alphas {
		p := ps[ai]
		sums := make([][]float64, len(routers))
		pairs := 0
		for _, r := range results[ai] {
			if !r.ok {
				continue
			}
			pairs++
			for ri := range routers {
				sums[ri] = append(sums[ri], r.probes[ri])
			}
		}
		row := []interface{}{alpha, p, pairs}
		for ri := range routers {
			if len(sums[ri]) == 0 {
				row = append(row, "-")
				continue
			}
			sm, err := stats.Summarize(sums[ri], 0)
			if err != nil {
				return nil, err
			}
			row = append(row, sm.Mean)
		}
		t.AddRow(row...)
	}
	t.AddNote("all four routers route the SAME conditioned samples (antipodal pairs on H_%d); differences are pure algorithm choice", n)
	t.AddNote("greedy-rescue = pure bit-fixing walk + unbounded BFS escape at dead ends; greedy = best-first by Hamming distance")
	return t, nil
}
