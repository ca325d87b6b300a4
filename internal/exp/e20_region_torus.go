package exp

import (
	"fmt"

	"faultroute/internal/core"
	"faultroute/internal/graph"
	"faultroute/internal/rng"
	"faultroute/internal/route"
	"faultroute/internal/runner"
	"faultroute/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "E20",
		Title: "Regional outages on the 2D torus: a dead submesh vs scattered kills",
		Claim: "Extension: on the torus the radius-R outage is a solid L1 diamond (the submesh case of correlated failures). Path-follow routing detours around one diamond at bounded extra cost, while the same casualty count scattered uniformly degrades routing globally — the low-dimensional analogue of E19.",
		Run:   runE20,
	})
}

func runE20(cfg Config) (*Table, error) {
	side := cfg.qf(10, 14)
	trials := cfg.qf(6, 20)
	radii := cfg.qfInts([]int{0, 1, 2}, []int{0, 1, 2, 3})
	const p = 0.75

	t := NewTable("E20",
		fmt.Sprintf("Median local probes on the %dx%d torus at p = %.2f under one radius-R outage diamond vs the same number of uniform node kills", side, side, p),
		"one diamond is detoured at bounded cost; matched scattered kills hurt at least as much",
		"radius", "killed", "region pairs", "region median", "region rej", "nodes pairs", "nodes median", "nodes rej")

	g, err := graph.NewTorus(2, side)
	if err != nil {
		return nil, err
	}
	u := graph.Vertex(0)
	// The vertex maximally distant from 0 in the wrap metric: the grid
	// center (side/2, side/2).
	v := graph.Vertex(uint64(side/2)*uint64(side) + uint64(side/2))

	// One estimate per (radius, model) cell, in table order, all run
	// as one batch; cell (ri, mi) keeps the seed Combine(Seed, ri<<8|mi).
	killed := make([]int, len(radii))
	var reqs []core.Request
	for ri, radius := range radii {
		killed[ri] = sim.BallSize(g, u, radius) // vertex-transitive: 2R²+2R+1 for R < side/2
		faults := []sim.Fault{
			{Model: sim.FailRegion, Radius: radius, Count: 1, Seed: 1},
			{Model: sim.FailNodes, Count: killed[ri], Seed: 1},
		}
		for mi, fault := range faults {
			reqs = append(reqs, core.Request{
				Spec: core.Spec{Graph: g, P: p, Router: route.NewPathFollow(), Fault: fault},
				Src:  u, Dst: v, Trials: trials, MaxTries: 400,
				Seed: rng.Combine(cfg.Seed, uint64(ri)<<8|uint64(mi)),
			})
		}
	}
	cs, err := core.EstimateBatchCtx(cfg.Context, reqs, cfg.Workers, runner.Progress(cfg.Progress))
	if err != nil {
		return nil, fmt.Errorf("E20: %w", err)
	}
	for ri, radius := range radii {
		row := []interface{}{radius, killed[ri]}
		for _, c := range cs[2*ri : 2*ri+2] {
			row = append(row, c.Trials, c.Median, c.Rejected)
		}
		t.AddRow(row...)
	}
	t.AddNote("each trial draws its outage independently (mask split from the sample seed), conditioned on u ~ v in the surviving graph")
	t.AddNote("p = 0.75 is comfortably above the 2D bond threshold 1/2, so conditioning accepts quickly away from the outage")
	return t, nil
}
