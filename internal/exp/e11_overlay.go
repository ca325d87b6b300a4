package exp

import (
	"errors"
	"math"

	"faultroute/internal/graph"
	"faultroute/internal/overlay"
	"faultroute/internal/percolation"
	"faultroute/internal/rng"
	"faultroute/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E11",
		Title: "P2P overlay under faults: DHT greedy lookup collapses before flooding",
		Claim: "Section 1.3: past the routing transition, routing-based exact search fails while flooding remains an effective (if costly) means to locate data on the same faulty network.",
		Run:   runE11,
	})
}

func runE11(cfg Config) (*Table, error) {
	n := cfg.qf(9, 11)
	trials := cfg.qf(20, 60)
	ps := cfg.qfFloats(
		[]float64{0.15, 0.30, 0.50, 0.90},
		[]float64{0.12, 0.18, 0.24, 0.32, 0.40, 0.50, 0.70, 0.90},
	)

	t := NewTable("E11",
		"Lookup success on a 2^n-node hypercube DHT with link failures (conditioned on owner reachable)",
		"greedy (exact-routing) success collapses near p = n^-1/2 while flooding stays at 100%; flooding pays in messages, greedy in nothing — it just fails",
		"p", "lookups", "greedy ok%", "flood ok%", "greedy msgs", "flood msgs", "flood hops")

	routingTransition := math.Pow(float64(n), -0.5)
	type trialResult struct {
		done, greedyOK, floodOK bool
		gm, fm, fh              float64
	}
	results, err := parCells(cfg, len(ps), trials, func(pi, trial int) (trialResult, error) {
		p := ps[pi]
		seed := cfg.trialSeed(uint64(pi), uint64(trial))
		o, err := overlay.New(n, p, seed)
		if err != nil {
			return trialResult{}, err
		}
		str := rng.NewStream(rng.Combine(seed, 7))
		key := str.Uint64()
		from := graph.Vertex(str.Uint64n(o.Cube().Order()))
		// Condition on the lookup being possible at all: requester
		// and owner in the same open component.
		if ok, err := percolation.Connected(o.Sample(), from, o.Owner(key)); err != nil || !ok {
			return trialResult{}, err
		}
		out := trialResult{done: true}
		if res, err := o.GreedyLookup(from, key); err == nil {
			out.greedyOK = true
			out.gm = float64(res.Messages)
		} else if !errors.Is(err, overlay.ErrLookupFailed) {
			return trialResult{}, err
		}
		res, err := o.FloodLookup(from, key, 20*n)
		if err != nil && !errors.Is(err, overlay.ErrLookupFailed) {
			return trialResult{}, err
		}
		if err == nil {
			out.floodOK = true
			out.fm = float64(res.Messages)
			out.fh = float64(res.Hops)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for pi, p := range ps {
		var greedyOK, floodOK, done int
		var gm, fm, fh []float64
		for _, r := range results[pi] {
			if !r.done {
				continue
			}
			done++
			if r.greedyOK {
				greedyOK++
				gm = append(gm, r.gm)
			}
			if r.floodOK {
				floodOK++
				fm = append(fm, r.fm)
				fh = append(fh, r.fh)
			}
		}
		if done == 0 {
			t.AddRow(p, 0, "-", "-", "-", "-", "-")
			continue
		}
		t.AddRow(p, done,
			100*float64(greedyOK)/float64(done),
			100*float64(floodOK)/float64(done),
			meanOrDash(gm), meanOrDash(fm), meanOrDash(fh))
	}
	t.AddNote("n = %d: routing transition at p ~ n^-1/2 = %.3f, connectivity transition at p ~ 1/n = %.3f",
		n, routingTransition, 1/float64(n))
	t.AddNote("flood TTL = 20n; flood hops is the latency (BFS depth) at which the key was found")
	return t, nil
}

// meanOrDash formats the mean of xs, or "-" when empty.
func meanOrDash(xs []float64) string {
	s, err := stats.Summarize(xs, 0)
	if err != nil {
		return "-"
	}
	return Cell(s.Mean)
}
