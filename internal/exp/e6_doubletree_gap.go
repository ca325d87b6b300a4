package exp

import (
	"fmt"

	"faultroute/internal/graph"
	"faultroute/internal/percolation"
	"faultroute/internal/plot"
	"faultroute/internal/rng"
	"faultroute/internal/route"
	"faultroute/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E6",
		Title: "Double tree: exponential local cost vs linear oracle cost",
		Claim: "Theorem 7: any local router between the roots of TT_n needs ~p^-n probes; Theorem 9: the paired-DFS oracle router needs only O(n).",
		Run:   runE6,
	})
}

func runE6(cfg Config) (*Table, error) {
	ps := cfg.qfFloats([]float64{0.80}, []float64{0.75, 0.80, 0.85})
	depths := cfg.qfInts([]int{4, 6, 8, 10}, []int{4, 6, 8, 10, 12, 14, 16})
	trials := cfg.qf(12, 30)

	t := NewTable("E6",
		"Probes between the roots of TT_n: local BFS vs Theorem 9 oracle DFS",
		"local probes grow exponentially in depth (rate ~ 2p per level), oracle probes linearly; the floor p^-n of Theorem 7 is always respected",
		"p", "depth", "pairs", "local mean", "oracle mean", "ratio", "p^-n floor")

	trees, err := buildAll(depths, graph.NewDoubleTree)
	if err != nil {
		return nil, err
	}
	type trialResult struct {
		local, oracle float64
		ok            bool
	}
	// Cell pi*len(depths)+di is (ps[pi], depths[di]); its seeds keep the
	// cell ID pi*100+di.
	results, err := parCells(cfg, len(ps)*len(depths), trials, func(c, trial int) (trialResult, error) {
		pi, di := c/len(depths), c%len(depths)
		g, p, d := trees[di], ps[pi], depths[di]
		seed := cfg.trialSeed(uint64(pi*100+di), uint64(trial))
		// Condition on the mirrored-branch event (the Theorem 9
		// success event; it implies u ~ v).
		var sample percolation.Sample
		okFound := false
		for try := 0; try < 300; try++ {
			s := percolation.New(g, p, rng.Combine(seed, uint64(try)))
			ok, err := route.DoubleTreeRootsLinked(s, 0)
			if err != nil {
				return trialResult{}, err
			}
			if ok {
				sample, okFound = s, true
				break
			}
		}
		if !okFound {
			return trialResult{}, nil
		}
		res := trialResult{ok: true}
		if _, err := oracleRun(route.NewDoubleTreeOracle(), g.RootA(), g.RootB(), &res.oracle)(sample); err != nil {
			return trialResult{}, fmt.Errorf("E6: oracle at depth %d: %w", d, err)
		}
		if _, err := localRun(route.NewBFSLocal(), g.RootA(), g.RootB(), &res.local)(sample); err != nil {
			return trialResult{}, fmt.Errorf("E6: local at depth %d: %w", d, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	for pi, p := range ps {
		depthX := make([]float64, 0, len(depths))
		localY := make([]float64, 0, len(depths))
		oracleY := make([]float64, 0, len(depths))
		for di, d := range depths {
			var localProbes, oracleProbes []float64
			for _, r := range results[pi*len(depths)+di] {
				if !r.ok {
					continue
				}
				oracleProbes = append(oracleProbes, r.oracle)
				localProbes = append(localProbes, r.local)
			}
			if len(localProbes) == 0 {
				t.AddRow(p, d, 0, "-", "-", "-", "-")
				continue
			}
			ls, err := stats.Summarize(localProbes, 0)
			if err != nil {
				return nil, err
			}
			os, err := stats.Summarize(oracleProbes, 0)
			if err != nil {
				return nil, err
			}
			floor := powNeg(p, d)
			t.AddRow(p, d, ls.N, ls.Mean, os.Mean, ls.Mean/os.Mean, floor)
			depthX = append(depthX, float64(d))
			localY = append(localY, ls.Mean)
			oracleY = append(oracleY, os.Mean)
		}
		if len(depthX) >= 3 {
			lf, err := stats.FitExponential(depthX, localY)
			if err != nil {
				return nil, err
			}
			of, err := stats.LinearFit(depthX, oracleY)
			if err != nil {
				return nil, err
			}
			t.AddNote("p = %.2f: local probes ~ %.2f^depth (R2 = %.3f; BFS explores the open cluster, rate ~ 2p = %.2f); oracle probes ~ %.1f*depth + %.1f (R2 = %.3f)",
				p, lf.Base, lf.R2, 2*p, of.Slope, of.Intercept, of.R2)
			t.AddFigure(Figure{
				Title:  fmt.Sprintf("p = %.2f: mean probes vs depth (log y) — straight line = exponential local, flat = linear oracle", p),
				XLabel: "depth", YLabel: "mean probes", LogY: true,
				Series: []plot.Series{
					{Name: "local bfs", X: depthX, Y: localY},
					{Name: "oracle dfs", X: depthX, Y: oracleY},
				},
			})
		}
	}
	t.AddNote("conditioned on the mirrored-branch event (Lemma 6); supercritical for all listed p > 1/sqrt(2)")
	return t, nil
}

// powNeg returns p^-d without importing math for a one-liner.
func powNeg(p float64, d int) float64 {
	out := 1.0
	for i := 0; i < d; i++ {
		out /= p
	}
	return out
}
