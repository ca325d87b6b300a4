package exp

import (
	"errors"
	"fmt"

	"faultroute/internal/graph"
	"faultroute/internal/percolation"
	"faultroute/internal/rng"
	"faultroute/internal/route"
	"faultroute/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E12",
		Title: "Section 6 open question: routing cost vs percolation on constant-degree, log-diameter families",
		Claim: "Open problem: is there a constant-degree, log-diameter family where the percolation and routing transitions coincide? Exploratory sweep over de Bruijn, shuffle-exchange, butterfly and cycle+matching.",
		Run:   runE12,
	})
}

func runE12(cfg Config) (*Table, error) {
	size := cfg.qf(9, 12)
	bfSize := cfg.qf(6, 8)
	cmSize := cfg.qf(512, 4096)
	trials := cfg.qf(10, 25)
	pairsPer := cfg.qf(3, 5)
	ps := cfg.qfFloats(
		[]float64{0.4, 0.6, 0.8},
		[]float64{0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90},
	)

	families := []graph.Graph{
		graph.MustDeBruijn(size),
		graph.MustShuffleExchange(size),
		graph.MustButterfly(bfSize),
		graph.MustCycleMatching(cmSize, cfg.Seed),
	}

	t := NewTable("E12",
		"Local BFS probes between random giant-component pairs, normalized by cluster size",
		"on these families routing cost tracks the full cluster: no p-regime found where the giant exists but probes/cluster-edges stays o(1) — consistent with (but not settling) the conjecture that the transitions coincide",
		"family", "p", "giant frac", "pairs", "median probes", "probes/E", "path len")

	type pairResult struct {
		probes, plen float64
	}
	type trialResult struct {
		giantFrac float64
		pairs     []pairResult
	}
	// Cell fi*len(ps)+pi is (families[fi], ps[pi]); its seeds keep the
	// cell ID fi*100+pi.
	results, err := parCells(cfg, len(families)*len(ps), trials, func(c, trial int) (trialResult, error) {
		fi, pi := c/len(ps), c%len(ps)
		g, p := families[fi], ps[pi]
		seed := cfg.trialSeed(uint64(fi*100+pi), uint64(trial))
		s := percolation.New(g, p, seed)
		comps, err := percolation.Label(s)
		if err != nil {
			return trialResult{}, err
		}
		out := trialResult{giantFrac: comps.GiantFraction()}
		str := rng.NewStream(rng.Combine(seed, 3))
		for k := 0; k < pairsPer; k++ {
			u, v, ok := giantPair(g, comps, str, 0, 200)
			if !ok {
				continue
			}
			var probes float64
			path, err := localRun(route.NewBFSLocal(), u, v, &probes)(s)
			if errors.Is(err, route.ErrNoPath) {
				return trialResult{}, fmt.Errorf("E12: giant pair disconnected (bug): %w", err)
			}
			if err != nil {
				return trialResult{}, err
			}
			out.pairs = append(out.pairs, pairResult{probes: probes, plen: float64(path.Len())})
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for fi, g := range families {
		edges := float64(graph.NumEdges(g))
		for pi, p := range ps {
			var probesArr, plens []float64
			var giantFrac float64
			samples := 0
			for _, r := range results[fi*len(ps)+pi] {
				giantFrac += r.giantFrac
				samples++
				for _, pr := range r.pairs {
					probesArr = append(probesArr, pr.probes)
					plens = append(plens, pr.plen)
				}
			}
			giantFrac /= float64(samples)
			if len(probesArr) == 0 {
				t.AddRow(g.Name(), p, giantFrac, 0, "-", "-", "-")
				continue
			}
			ps2, err := stats.Summarize(probesArr, 0)
			if err != nil {
				return nil, err
			}
			ls, err := stats.Summarize(plens, 0)
			if err != nil {
				return nil, err
			}
			t.AddRow(g.Name(), p, giantFrac, ps2.N, ps2.Median, ps2.Median/edges, ls.Mean)
		}
	}
	t.AddNote("BFS is the only general local router; a family answering the open question affirmatively would show probes/E -> 0 while giant frac stays > 0, for p near its percolation threshold")
	return t, nil
}
