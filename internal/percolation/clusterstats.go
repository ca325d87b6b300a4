package percolation

import (
	"context"
	"fmt"

	"faultroute/internal/graph"
	"faultroute/internal/rng"
	"faultroute/internal/runner"
)

// ClusterStats summarizes the cluster-size structure of one percolation
// configuration — the standard observables of percolation theory that
// govern the constants in Theorem 4 (via the Antal-Pisztora chemical
// distance machinery) and the blow-up in Theorem 3(i).
type ClusterStats struct {
	// P is the retention probability of the sample.
	P float64
	// Theta is the fraction of vertices in the largest cluster — the
	// finite-volume percolation probability θ(p).
	Theta float64
	// Chi is the mean size of the cluster containing a uniformly random
	// vertex, largest cluster EXCLUDED — the finite-volume analogue of
	// the susceptibility χ(p), which diverges at criticality from both
	// sides.
	Chi float64
	// MeanCluster is the mean cluster size over clusters (not over
	// vertices).
	MeanCluster float64
	// Clusters is the number of clusters.
	Clusters uint64
	// SizeHistogram maps cluster size -> count of clusters of that size.
	SizeHistogram map[uint64]uint64
}

// NewClusterStats computes cluster statistics from a labeled sample.
func NewClusterStats(s Sample, comps *Components) ClusterStats {
	sizes := comps.SizesDescending()
	st := ClusterStats{
		P:             s.P(),
		Clusters:      uint64(len(sizes)),
		SizeHistogram: make(map[uint64]uint64),
	}
	order := float64(s.Graph().Order())
	if len(sizes) == 0 {
		return st
	}
	st.Theta = float64(sizes[0]) / order

	var total, sumSq float64
	for i, sz := range sizes {
		st.SizeHistogram[sz]++
		total += float64(sz)
		if i > 0 { // exclude the giant from the susceptibility
			sumSq += float64(sz) * float64(sz)
		}
	}
	st.MeanCluster = total / float64(len(sizes))
	// χ = Σ' s² / N: the expected size of a random vertex's cluster,
	// restricted to non-giant clusters (Σ' excludes the largest).
	st.Chi = sumSq / order
	return st
}

// ClusterScanSampledCtx averages cluster statistics over `trials`
// samples at each p, each built by newSample (the failure-model hook,
// as in GiantScanSampledCtx); the susceptibility column peaking at
// criticality is how one reads the threshold off finite data. Cells are
// seeded, sharded and folded exactly as in GiantScanCtx, so results are
// bit-identical for every workers value.
func ClusterScanSampledCtx(ctx context.Context, g graph.Graph, ps []float64, trials int, baseSeed uint64, workers int, progress runner.Progress, newSample SampleFactory) ([]ClusterStats, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("percolation: cluster scan needs positive trials, got %d", trials)
	}
	samples, err := runner.MapCtx(ctx, runner.New(workers), len(ps)*trials, progress, func(flat int) (ClusterStats, error) {
		row, t := flat/trials, flat%trials
		s, release := newSample(ps[row], rng.Combine(baseSeed, uint64(row)<<32|uint64(t)))
		if release != nil {
			defer release()
		}
		comps, err := Label(s)
		if err != nil {
			return ClusterStats{}, err
		}
		return NewClusterStats(s, comps), nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]ClusterStats, len(ps))
	for i, p := range ps {
		acc := ClusterStats{P: p, SizeHistogram: make(map[uint64]uint64)}
		for t := 0; t < trials; t++ {
			st := samples[i*trials+t]
			acc.Theta += st.Theta
			acc.Chi += st.Chi
			acc.MeanCluster += st.MeanCluster
			acc.Clusters += st.Clusters
			for sz, n := range st.SizeHistogram {
				acc.SizeHistogram[sz] += n
			}
		}
		f := float64(trials)
		acc.Theta /= f
		acc.Chi /= f
		acc.MeanCluster /= f
		acc.Clusters /= uint64(trials)
		out[i] = acc
	}
	return out, nil
}
