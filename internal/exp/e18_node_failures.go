package exp

import (
	"errors"
	"fmt"
	"math"

	"faultroute/internal/core"
	"faultroute/internal/graph"
	"faultroute/internal/percolation"
	"faultroute/internal/route"
	"faultroute/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E18",
		Title: "Node failures vs link failures: the routing blow-up is model-independent",
		Claim: "Extension: the related work (Hastad-Leighton-Newman) studies NODE faults. Replacing bond percolation with site percolation at the same retention probability reproduces the Theorem 3 blow-up pattern — the locality obstruction is about sparse connectivity, not about which element fails.",
		Run:   runE18,
	})
}

func runE18(cfg Config) (*Table, error) {
	n := cfg.qf(10, 12)
	trials := cfg.qf(8, 25)
	alphas := cfg.qfFloats([]float64{0.25, 0.55}, []float64{0.15, 0.30, 0.45, 0.60})

	t := NewTable("E18",
		fmt.Sprintf("Median local probes on H_%d under bond vs site percolation, retention = n^-alpha", n),
		"both failure models show the same qualitative explosion in alpha (site percolation is somewhat harsher: a dead vertex kills all n incident edges)",
		"alpha", "retention", "bond pairs", "bond median", "site pairs", "site median")

	g, err := graph.NewHypercube(n)
	if err != nil {
		return nil, err
	}
	u := graph.Vertex(0)
	v := g.Antipode(u)

	type trialResult struct {
		probes float64
		ok     bool
	}
	// Cell ai*2+mode is (alphas[ai], bond or site); its seeds keep the
	// cell ID ai*10+mode.
	ps := make([]float64, len(alphas))
	draws := make([]func(seed uint64) percolation.Sample, 2*len(alphas))
	for ai, alpha := range alphas {
		p := math.Pow(float64(n), -alpha)
		ps[ai] = p
		// Conditioning on {u ~ v} under site percolation implies both
		// endpoints alive.
		draws[2*ai] = bondDraw(g, p)
		draws[2*ai+1] = func(seed uint64) percolation.Sample { return percolation.NewSiteBond(g, 1, p, seed) }
	}
	results, err := parCells(cfg, len(draws), trials, func(c, trial int) (trialResult, error) {
		ai, mode := c/2, c%2
		alpha := alphas[ai]
		seed := cfg.trialSeed(uint64(ai*10+mode), uint64(trial))
		res := trialResult{ok: true}
		_, _, runErr, err := core.Condition(draws[c], u, v, seed, 400,
			localRun(route.NewPathFollow(), u, v, &res.probes))
		if errors.Is(err, core.ErrConditioning) {
			return trialResult{}, nil
		}
		if err != nil {
			return trialResult{}, err
		}
		if runErr != nil {
			return trialResult{}, fmt.Errorf("E18: mode %d alpha %.2f: %w", mode, alpha, runErr)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	for ai, alpha := range alphas {
		p := ps[ai]
		medians := make([]interface{}, 0, 4)
		for mode := 0; mode < 2; mode++ {
			var probes []float64
			for _, r := range results[2*ai+mode] {
				if r.ok {
					probes = append(probes, r.probes)
				}
			}
			if len(probes) == 0 {
				medians = append(medians, 0, "-")
				continue
			}
			sum, err := stats.Summarize(probes, 0)
			if err != nil {
				return nil, err
			}
			medians = append(medians, sum.N, sum.Median)
		}
		row := append([]interface{}{alpha, p}, medians...)
		t.AddRow(row...)
	}
	t.AddNote("bond mode: edges kept w.p. n^-alpha, all nodes alive; site mode: nodes kept w.p. n^-alpha, all edges intact")
	t.AddNote("antipodal pairs conditioned on u ~ v; site conditioning requires both endpoints alive, so acceptance is rarer at large alpha")
	return t, nil
}
