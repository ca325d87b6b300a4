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
		ID:    "E19",
		Title: "Regional outages on the hypercube: clustered kills vs matched uniform kills",
		Claim: "Extension: killing one BFS ball of radius R costs local routing no more than killing the same NUMBER of uniformly random vertices — a single dead region is routed around locally, while scattered kills fragment connectivity everywhere, so correlated faults are (per casualty) the benign case for antipodal routing.",
		Run:   runE19,
	})
}

func runE19(cfg Config) (*Table, error) {
	n := cfg.qf(9, 11)
	trials := cfg.qf(6, 20)
	radii := cfg.qfInts([]int{0, 1, 2}, []int{0, 1, 2, 3})
	const p = 0.6

	t := NewTable("E19",
		fmt.Sprintf("Median local probes on H_%d at p = %.2f under one radius-R outage ball vs the same number of uniform node kills", n, p),
		"per killed vertex, a clustered region is cheaper to route around than scattered kills",
		"radius", "killed", "region pairs", "region median", "region rej", "nodes pairs", "nodes median", "nodes rej")

	g, err := graph.NewHypercube(n)
	if err != nil {
		return nil, err
	}
	u := graph.Vertex(0)
	v := g.Antipode(u)

	// One estimate per (radius, model) cell, in table order, all run
	// as one batch; cell (ri, mi) keeps the seed Combine(Seed, ri<<8|mi).
	killed := make([]int, len(radii))
	var reqs []core.Request
	for ri, radius := range radii {
		killed[ri] = sim.BallSize(g, u, radius) // vertex-transitive: any center kills this many
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
		return nil, fmt.Errorf("E19: %w", err)
	}
	for ri, radius := range radii {
		row := []interface{}{radius, killed[ri]}
		for _, c := range cs[2*ri : 2*ri+2] {
			row = append(row, c.Trials, c.Median, c.Rejected)
		}
		t.AddRow(row...)
	}
	t.AddNote("each trial draws its outage independently (mask split from the sample seed), conditioned on u ~ v in the surviving graph")
	t.AddNote("killed = |B(R)| on H_%d; the nodes model kills exactly that many uniform vertices (with replacement)", n)
	return t, nil
}
