// Package probe implements the query model of the paper (Definitions 1
// and 2): a routing algorithm learns the percolation configuration only
// by probing edges, and its complexity is the number of distinct edges
// probed.
//
// Two probers are provided. Oracle may probe any edge of the base graph
// (the "oracle routing" model of Section 5). Local enforces Definition
// 1's locality rule — the first probe must touch the source, and every
// subsequent probe must touch a vertex already connected to the source by
// probed-open edges; violating probes are rejected with ErrNotLocal, so
// the locality of a router is machine-checked rather than assumed.
//
// Both probers memoize: re-probing a known edge is free, matching the
// paper's convention of counting queries of distinct edges (an algorithm
// gains nothing from repeats). Budgets turn the lower-bound experiments'
// exponential blow-ups into clean ErrBudget failures.
//
// Probers are mutable per-run state: the trial engine creates a fresh
// prober for every routing run, so concurrent trials never share one.
// Their memo and reached-set tables are epoch-stamped arena structures
// (internal/arena) rather than maps; Release recycles them through the
// shared pool so steady-state trial loops allocate nothing, and routers
// borrow their search tables from the same arena via ArenaProvider.
//
// The memo is sized by the graph's edge-ID bound when the graph
// declares one (graph.EdgeSpace, which every family implements): up to
// arena.DenseEdgeLimit IDs it is a flat table of two bits per ID, so
// one memo for K_400's 160,000 IDs takes 78 KiB however much of K_400
// a G(n, p) route probes. Graphs without a bound, and hypercubes of
// dimension 17 and up, get an open-addressed memo that grows with the
// probed set. Either way a probe answers the same and counts the same.
package probe
