package exp

import (
	"errors"
	"fmt"

	"faultroute/internal/core"
	"faultroute/internal/percolation"
	"faultroute/internal/probe"
	"faultroute/internal/route"
	"faultroute/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E4",
		Title: "Mesh per-step routing cost as p approaches criticality from above",
		Claim: "Theorem 4 holds for every p > p_c, but its constant (the Antal-Pisztora rho and the per-segment exponential tail) diverges as p -> p_c; the per-step cost blows up while remaining finite above p_c.",
		Run:   runE4,
	})
}

func runE4(cfg Config) (*Table, error) {
	n := cfg.qf(30, 60)
	trials := cfg.qf(10, 30)
	ps := cfg.qfFloats(
		[]float64{0.55, 0.65, 0.80},
		[]float64{0.52, 0.54, 0.56, 0.58, 0.60, 0.65, 0.70, 0.80, 0.90},
	)

	t := NewTable("E4",
		fmt.Sprintf("Per-step cost of the Theorem 4 router on M^2 at distance n = %d", n),
		"mean probes per unit distance grows as p decreases toward p_c(2) = 1/2 but stays finite above it",
		"p", "pairs", "mean", "mean/n", "p90/n", "max seg", "accept%")

	type trialResult struct {
		probes    float64
		maxSeg    float64
		attempted int
		ok        bool
	}
	g, u, v, err := meshPair(2, n, 24)
	if err != nil {
		return nil, err
	}
	results, err := parCells(cfg, len(ps), trials, func(pi, trial int) (trialResult, error) {
		p := ps[pi]
		seed := cfg.trialSeed(uint64(pi), uint64(trial))
		var probes float64
		var segs []route.SegmentStats
		_, rejected, runErr, err := core.Condition(bondDraw(g, p), u, v, seed, 300,
			func(s percolation.Sample) (path route.Path, err error) {
				pr := probe.NewLocal(s, u, 0)
				path, segs, err = route.NewPathFollow().RouteWithStats(pr, u, v)
				probes = float64(pr.Count())
				pr.Release()
				return path, err
			})
		res := trialResult{attempted: rejected + 1}
		if errors.Is(err, core.ErrConditioning) {
			return res, nil
		}
		if err != nil {
			return trialResult{}, err
		}
		if runErr != nil {
			return trialResult{}, fmt.Errorf("E4: p=%.2f: %w", p, runErr)
		}
		res.probes, res.ok = probes, true
		for _, sg := range segs {
			if f := float64(sg.Probes); f > res.maxSeg {
				res.maxSeg = f
			}
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	for pi, p := range ps {
		var perStep []float64
		var maxSeg float64
		accepted, attempted := 0, 0
		for _, r := range results[pi] {
			attempted += r.attempted
			if !r.ok {
				continue
			}
			accepted++
			perStep = append(perStep, r.probes)
			if r.maxSeg > maxSeg {
				maxSeg = r.maxSeg
			}
		}
		if len(perStep) == 0 {
			t.AddRow(p, 0, "-", "-", "-", "-", 0)
			continue
		}
		sum, err := stats.Summarize(perStep, 0)
		if err != nil {
			return nil, err
		}
		acceptPct := 100 * float64(accepted) / float64(attempted)
		t.AddRow(p, sum.N, sum.Mean, sum.Mean/float64(n), sum.P90/float64(n), maxSeg, acceptPct)
	}
	t.AddNote("accept%% is the conditioning acceptance rate Pr[u ~ v] — it too collapses at p_c")
	t.AddNote("'max seg' is the costliest single waypoint-to-waypoint search seen (the exponential-tail variable of Lemma 8)")
	return t, nil
}
