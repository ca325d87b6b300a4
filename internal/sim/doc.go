// Package sim simulates message passing over faulty networks,
// deterministically. It exists to substantiate the paper's framing:
// Definition 1's "local routing algorithm" is exactly a distributed
// protocol in which a message can only be forwarded across links
// adjacent to nodes it has already visited, and a probe is a
// transmission attempt over a possibly-failed link.
//
// Experiment E13 runs a distributed flooding/echo protocol on the same
// percolation samples as the probe-model routers and confirms that the
// message complexity of the protocol tracks the probe complexity of
// BFSLocal (up to the ≤2× factor from edges being attempted from both
// endpoints) — so every probe-model result in the paper transfers to
// message counts in an actual network.
//
// The flood is synchronous: round t delivers, in send order, the
// messages sent in round t-1, from two reused message slices, and each
// node keeps one parent pointer in a pooled arena map. Each run owns
// that state, so the exp harness can run E13/E16 trials concurrently,
// one simulation per trial.
//
// The package also hosts the correlated failure models (Fault / Mask,
// failure.go): per-trial vertex outage masks — i.i.d. kills, regional
// BFS-ball outages, or k uniform kills — drawn from seeds split off the
// trial's sample seed and layered over percolation samples as DeadSets.
// They live here rather than in percolation because they describe how a
// NETWORK fails (whole nodes, correlated regions), not how individual
// bonds percolate.
package sim
