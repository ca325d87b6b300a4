package exp

import (
	"errors"
	"fmt"

	"faultroute/internal/graph"
	"faultroute/internal/percolation"
	"faultroute/internal/route"
	"faultroute/internal/sim"
	"faultroute/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E13",
		Title: "Probe model = message model: distributed flooding vs local BFS probes",
		Claim: "Definition 1's local routing is a distributed protocol in disguise: the message complexity of distributed flooding/echo tracks the probe complexity of exhaustive local BFS on the same samples, within small constant factors.",
		Run:   runE13,
	})
}

func runE13(cfg Config) (*Table, error) {
	trials := cfg.qf(8, 20)
	type inst struct {
		name string
		g    graph.Graph
		p    float64
		src  graph.Vertex
		dst  graph.Vertex
	}
	mesh := graph.MustMesh(2, cfg.qf(20, 40))
	cube := graph.MustHypercube(cfg.qf(9, 11))
	tor := graph.MustTorus(2, cfg.qf(15, 30))
	instances := []inst{
		{"mesh", mesh, 0.60, 0, graph.Vertex(mesh.Order() - 1)},
		{"hypercube", cube, 0.50, 0, cube.Antipode(0)},
		{"torus", tor, 0.55, 0, graph.Vertex(tor.Order()/2 + uint64(tor.Side())/2)},
	}

	t := NewTable("E13",
		"Message attempts of distributed flooding vs probe counts of local BFS",
		"attempts/probes stays within small constants; agreement on reachability is exact",
		"instance", "p", "runs", "agree", "mean attempts", "mean probes", "ratio", "mean rounds")

	type trialResult struct {
		attempts, probes, rounds float64
		agree                    bool
	}
	results, err := parCells(cfg, len(instances), trials, func(ii, trial int) (trialResult, error) {
		in := instances[ii]
		seed := cfg.trialSeed(uint64(ii), uint64(trial))
		s := percolation.New(in.g, in.p, seed)
		out, err := sim.DistributedBFS(s, in.src, in.dst, 0)
		if err != nil {
			return trialResult{}, fmt.Errorf("E13 %s: %w", in.name, err)
		}
		var probes float64
		_, rerr := localRun(route.NewBFSLocal(), in.src, in.dst, &probes)(s)
		if rerr != nil && !errors.Is(rerr, route.ErrNoPath) {
			return trialResult{}, rerr
		}
		return trialResult{
			attempts: float64(out.Attempts),
			probes:   probes,
			rounds:   out.Time,
			agree:    out.Found == (rerr == nil),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for ii, in := range instances {
		var attempts, probes, rounds []float64
		agree := 0
		runs := 0
		for _, r := range results[ii] {
			runs++
			if r.agree {
				agree++
			}
			attempts = append(attempts, r.attempts)
			probes = append(probes, r.probes)
			rounds = append(rounds, r.rounds)
		}
		as, err := stats.Summarize(attempts, 0)
		if err != nil {
			return nil, err
		}
		bs, err := stats.Summarize(probes, 0)
		if err != nil {
			return nil, err
		}
		rs, err := stats.Summarize(rounds, 0)
		if err != nil {
			return nil, err
		}
		t.AddRow(in.name, in.p, runs, fmt.Sprintf("%d/%d", agree, runs),
			as.Mean, bs.Mean, as.Mean/bs.Mean, rs.Mean)
	}
	t.AddNote("ratio > 1 because the flood explores the whole open cluster (no global termination) and attempts each link from both endpoints; BFS stops at the destination")
	return t, nil
}
