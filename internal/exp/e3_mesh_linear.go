package exp

import (
	"errors"
	"fmt"

	"faultroute/internal/core"
	"faultroute/internal/graph"
	"faultroute/internal/plot"
	"faultroute/internal/route"
	"faultroute/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E3",
		Title: "Mesh routing is linear in distance for every p above criticality",
		Claim: "Theorem 4: on M^d_p with p > p_c(d), the expected routing complexity between vertices at distance n is O(n).",
		Run:   runE3,
	})
}

// meshPair places the endpoints n steps apart along the middle row of a
// side-(n+margin) mesh, keeping boundary effects mild.
func meshPair(d, n, margin int) (*graph.Mesh, graph.Vertex, graph.Vertex, error) {
	side := n + margin
	g, err := graph.NewMesh(d, side)
	if err != nil {
		return nil, 0, 0, err
	}
	cu := make([]int, d)
	cv := make([]int, d)
	for i := range cu {
		cu[i] = side / 2
		cv[i] = side / 2
	}
	cu[0] = margin / 2
	cv[0] = margin/2 + n
	u, err := g.VertexAt(cu...)
	if err != nil {
		return nil, 0, 0, err
	}
	v, err := g.VertexAt(cv...)
	if err != nil {
		return nil, 0, 0, err
	}
	return g, u, v, nil
}

func runE3(cfg Config) (*Table, error) {
	type sweep struct {
		d  int
		ps []float64
		ns []int
	}
	sweeps := []sweep{
		{
			d:  2,
			ps: cfg.qfFloats([]float64{0.60, 0.90}, []float64{0.55, 0.60, 0.70, 0.90}),
			ns: cfg.qfInts([]int{10, 20, 40}, []int{20, 40, 80, 160}),
		},
		{
			d:  3,
			ps: cfg.qfFloats([]float64{0.40}, []float64{0.35, 0.50}),
			ns: cfg.qfInts([]int{8, 16}, []int{10, 20, 40}),
		},
	}
	trials := cfg.qf(10, 25)

	t := NewTable("E3",
		"Local probes of the Theorem 4 path-follow router on the d-dimensional mesh",
		"mean probes / distance stays bounded as distance grows, for every p > p_c(d)",
		"d", "p", "dist n", "pairs", "mean", "mean/n", "p90/n")

	type trialResult struct {
		probes float64
		ok     bool
	}
	// The sweep's cells in table order; cell k keeps the seed cell ID
	// k+1.
	type meshCell struct {
		d    int
		p    float64
		n    int
		g    *graph.Mesh
		u, v graph.Vertex
	}
	var cells []meshCell
	for _, sw := range sweeps {
		for _, p := range sw.ps {
			for _, n := range sw.ns {
				g, u, v, err := meshPair(sw.d, n, 20)
				if err != nil {
					return nil, err
				}
				cells = append(cells, meshCell{d: sw.d, p: p, n: n, g: g, u: u, v: v})
			}
		}
	}
	results, err := parCells(cfg, len(cells), trials, func(k, trial int) (trialResult, error) {
		c := cells[k]
		seed := cfg.trialSeed(uint64(k+1), uint64(trial))
		res := trialResult{ok: true}
		_, _, runErr, err := core.Condition(bondDraw(c.g, c.p), c.u, c.v, seed, 200,
			localRun(route.NewPathFollow(), c.u, c.v, &res.probes))
		if errors.Is(err, core.ErrConditioning) {
			return trialResult{}, nil
		}
		if err != nil {
			return trialResult{}, err
		}
		if runErr != nil {
			return trialResult{}, fmt.Errorf("E3: d=%d p=%.2f n=%d: %w", c.d, c.p, c.n, runErr)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	k := 0
	var figSeries []plot.Series
	for _, sw := range sweeps {
		for _, p := range sw.ps {
			xs := make([]float64, 0, len(sw.ns))
			ys := make([]float64, 0, len(sw.ns))
			for _, n := range sw.ns {
				cellResults := results[k]
				k++
				var probes []float64
				for _, r := range cellResults {
					if r.ok {
						probes = append(probes, r.probes)
					}
				}
				if len(probes) == 0 {
					t.AddRow(sw.d, p, n, 0, "-", "-", "-")
					continue
				}
				sum, err := stats.Summarize(probes, 0)
				if err != nil {
					return nil, err
				}
				t.AddRow(sw.d, p, n, sum.N, sum.Mean, sum.Mean/float64(n), sum.P90/float64(n))
				xs = append(xs, float64(n))
				ys = append(ys, sum.Mean)
			}
			if len(xs) >= 2 {
				fit, err := stats.FitPowerLaw(xs, ys)
				if err != nil {
					return nil, err
				}
				t.AddNote("d = %d, p = %.2f: probes ~ n^%.2f (R2 = %.3f); theorem predicts exponent 1",
					sw.d, p, fit.Exponent, fit.R2)
				figSeries = append(figSeries, plot.Series{
					Name: fmt.Sprintf("d=%d p=%.2f", sw.d, p), X: xs, Y: ys,
				})
			}
		}
	}
	t.AddFigure(Figure{
		Title:  "mean probes vs distance (log-log); slope 1 lines = Theorem 4",
		XLabel: "distance n", YLabel: "mean probes", LogX: true, LogY: true,
		Series: figSeries,
	})
	t.AddNote("p_c(2) = 1/2 (Kesten), p_c(3) ~ 0.2488; endpoints at L1 distance n, conditioned on u ~ v")
	return t, nil
}
