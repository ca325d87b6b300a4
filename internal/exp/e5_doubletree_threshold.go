package exp

import (
	"fmt"
	"math"

	"faultroute/internal/graph"
	"faultroute/internal/percolation"
	"faultroute/internal/plot"
	"faultroute/internal/rng"
	"faultroute/internal/route"
)

func init() {
	register(Experiment{
		ID:    "E5",
		Title: "Double-tree root connectivity threshold at 1/sqrt(2)",
		Claim: "Lemma 6: the roots of TT_n are connected with probability bounded away from 0 iff p > 1/sqrt(2) ~ 0.7071 (mirrored-branch survival = Galton-Watson with offspring Bin(2, p^2)).",
		Run:   runE5,
	})
}

func runE5(cfg Config) (*Table, error) {
	depths := cfg.qfInts([]int{4, 6, 8}, []int{6, 10, 14, 18})
	trials := cfg.qf(120, 400)
	ps := cfg.qfFloats(
		[]float64{0.62, 0.68, 0.7071, 0.74, 0.80},
		[]float64{0.60, 0.64, 0.67, 0.69, 0.7071, 0.72, 0.74, 0.78, 0.82},
	)

	cols := []string{"p", "2p^2"}
	for _, d := range depths {
		cols = append(cols, fmt.Sprintf("link%%@n=%d", d))
	}
	cols = append(cols, "GW-limit")
	t := NewTable("E5",
		"Mirrored-branch survival frequency on TT_n (the Lemma 6 connectivity event)",
		"as depth grows, the survival curve sharpens into a step at p = 1/sqrt(2)",
		cols...)

	trees, err := buildAll(depths, graph.NewDoubleTree)
	if err != nil {
		return nil, err
	}
	// Cell pi*len(depths)+di is (ps[pi], depths[di]); its seeds keep the
	// cell ID pi*100+di.
	results, err := parCells(cfg, len(ps)*len(depths), trials, func(c, trial int) (bool, error) {
		pi, di := c/len(depths), c%len(depths)
		seed := cfg.trialSeed(uint64(pi*100+di), uint64(trial))
		s := percolation.New(trees[di], ps[pi], rng.Combine(seed, 1))
		return route.DoubleTreeRootsLinked(s, 0)
	})
	if err != nil {
		return nil, err
	}
	curves := make([][]float64, len(depths))
	for pi, p := range ps {
		row := []interface{}{p, 2 * p * p}
		for di := range depths {
			linked := 0
			for _, ok := range results[pi*len(depths)+di] {
				if ok {
					linked++
				}
			}
			row = append(row, 100*float64(linked)/float64(trials))
			curves[di] = append(curves[di], 100*float64(linked)/float64(trials))
		}
		row = append(row, 100*gwSurvival(p*p))
		t.AddRow(row...)
	}
	series := make([]plot.Series, 0, len(depths)+1)
	for di, d := range depths {
		series = append(series, plot.Series{
			Name: fmt.Sprintf("depth %d", d), X: ps, Y: curves[di],
		})
	}
	gw := make([]float64, len(ps))
	for i, p := range ps {
		gw[i] = 100 * gwSurvival(p*p)
	}
	series = append(series, plot.Series{Name: "GW limit", X: ps, Y: gw})
	t.AddFigure(Figure{
		Title:  "root-linkage survival vs p; curves sharpen into a step at 1/sqrt(2)",
		XLabel: "p", YLabel: "linked %", Series: series,
	})
	t.AddNote("GW-limit: infinite-depth survival probability of the Bin(2, p^2) branching process, 100*(1 - q) with q the extinction probability")
	t.AddNote("1/sqrt(2) = %.4f is where the offspring mean 2p^2 crosses 1", 1/math.Sqrt2)
	return t, nil
}

// gwSurvival returns the survival probability of a Galton-Watson process
// with offspring Bin(2, r): extinction q solves q = (1-r+rq)^2; the
// relevant root is q = ((1-r)/r)^2 for r > 1/2, else 1.
func gwSurvival(r float64) float64 {
	if r <= 0.5 {
		return 0
	}
	q := (1 - r) / r
	q *= q
	return 1 - q
}
