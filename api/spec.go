package api

// This file holds the wire-frozen spec and result structs. Field order,
// names, tags and types are part of the content-address scheme (the
// structs are hashed via their encoding/json form — see Compile), so
// any change here is a breaking change to persisted keys; the golden
// tests in internal/cache pin the current layout.

// GraphSpec selects a topology. Only the fields a family uses survive
// normalization (e.g. a mesh keeps d and side, never n), so irrelevant
// fields cannot split the cache.
type GraphSpec struct {
	// Family is one of hypercube, mesh, torus, doubletree, complete,
	// debruijn, shuffleexchange, butterfly, cyclematching, ring,
	// kleinberg. GraphFamilies lists them programmatically.
	Family string `json:"family"`
	// N is the size parameter (dimension, depth or order).
	N int `json:"n,omitempty"`
	// D and Side shape mesh/torus families (d defaults to 2). The
	// kleinberg family reuses them as clustering exponent (d, default 2)
	// and grid side.
	D    int `json:"d,omitempty"`
	Side int `json:"side,omitempty"`
	// Seed wires the random matching of the cyclematching family and the
	// long-range contacts of the kleinberg family.
	Seed uint64 `json:"seed,omitempty"`
}

// FailSpec selects a correlated failure model layered over the edge
// percolation: each sample additionally kills the vertices the model
// draws for that sample's seed (an internal/sim fault mask), so
// conditioning, routing and component scans all see the surviving graph.
//
// Models: "iid" kills each vertex independently with probability Rate;
// "region" kills every vertex within BFS distance Radius of each of
// Count uniformly drawn centers — a subcube on the hypercube, a submesh
// on mesh/torus; "nodes" kills Count uniform vertices (region with
// Radius 0, generalizing experiment E18).
//
// Normalization drops a FailSpec that cannot kill anything (iid with
// Rate 0, nodes with Count 0), so such a spec shares the content address
// of the same job with no FailSpec at all; the field is omitempty and
// sits last in its parent specs so every pre-FailSpec encoding — and
// therefore every persisted content address — is byte-unchanged.
type FailSpec struct {
	// Model is iid (default), region, or nodes.
	Model string `json:"model,omitempty"`
	// Rate is the iid per-vertex failure probability in [0, 1].
	Rate float64 `json:"rate,omitempty"`
	// Radius is the region BFS ball radius.
	Radius int `json:"radius,omitempty"`
	// Count is the number of region outage balls or nodes kills.
	Count int `json:"count,omitempty"`
	// Seed feeds the failure stream (decorrelated from the job seed).
	Seed uint64 `json:"seed,omitempty"`
}

// EstimateSpec is a routing-complexity measurement job (core.EstimateCtx
// over the wire). Dst nil selects the family's canonical destination
// (antipode, opposite corner, mirrored root); normalization resolves it.
//
// Shard, when non-nil, narrows the job to the trial sub-range it names:
// the result is then the per-trial rows of that range (a ShardResult)
// instead of the merged distribution, so a distributed runner can fan
// disjoint ranges out to many backends and fold them back with
// MergeShards. Shard and Fail sit after every earlier field so that the
// nil encodings — and therefore every pre-shard and pre-FailSpec content
// address — are unchanged.
type EstimateSpec struct {
	Graph    GraphSpec  `json:"graph"`
	P        float64    `json:"p"`
	Router   string     `json:"router"`
	Mode     string     `json:"mode"`
	Budget   int        `json:"budget"`
	Src      uint64     `json:"src"`
	Dst      *uint64    `json:"dst"`
	Trials   int        `json:"trials"` // 1..MaxTrials
	MaxTries int        `json:"maxTries"`
	Seed     uint64     `json:"seed"`
	Shard    *ShardSpec `json:"shard,omitempty"`
	Fail     *FailSpec  `json:"fail,omitempty"`
}

// ShardSpec selects the trial sub-range [Offset, Offset+Count) of an
// estimate's [0, Trials) schedule. Trial number Offset+i derives its
// randomness from (seed, Offset+i) exactly as in an unsharded run, so a
// shard's rows are the same rows a single-machine run would produce for
// those indices. The shard is part of the hashed spec: every sub-range
// has its own content address, distinct from the parent job's.
type ShardSpec struct {
	Offset int `json:"offset"`
	Count  int `json:"count"`
}

// ExperimentSpec is one EXPERIMENTS.md experiment run (E1..E21). Its
// result is the canonical Table JSON — byte-identical to
// `routebench -exp <id> -format json` at the same seed and scale.
type ExperimentSpec struct {
	ID    string `json:"id"`
	Seed  uint64 `json:"seed"`
	Scale string `json:"scale"`
}

// PercolationSpec is a component-structure sweep (the percolate CLI's
// giant/cluster scans over the wire). Fail sits last so the nil (pure
// bond percolation) encoding — and every pre-FailSpec content address —
// is unchanged.
type PercolationSpec struct {
	Graph    GraphSpec `json:"graph"`
	Ps       []float64 `json:"ps"`
	Trials   int       `json:"trials"` // positive; len(Ps) × Trials ≤ MaxTrials
	Seed     uint64    `json:"seed"`
	Clusters bool      `json:"clusters"`
	Fail     *FailSpec `json:"fail,omitempty"`
}

// EstimateResult is the canonical JSON encoding of a core.Complexity.
type EstimateResult struct {
	Trials   int     `json:"trials"`
	Censored int     `json:"censored"`
	Rejected int     `json:"rejected"`
	Mean     float64 `json:"mean"`
	Std      float64 `json:"std"`
	Min      float64 `json:"min"`
	Q25      float64 `json:"q25"`
	Median   float64 `json:"median"`
	Q75      float64 `json:"q75"`
	P90      float64 `json:"p90"`
	Max      float64 `json:"max"`
}

// TrialRow is one trial's outcome inside a ShardResult — the wire form
// of core.TrialResult. Exactly one of Accepted/Censored is set on a
// successful trial (a trial that errors fails the whole shard job
// instead, mirroring the in-process engine).
type TrialRow struct {
	// Probes is comp(A) for this trial, meaningful when Accepted.
	Probes   float64 `json:"probes"`
	Accepted bool    `json:"accepted,omitempty"`
	Censored bool    `json:"censored,omitempty"`
	// Rejected counts conditioning rejections within the trial.
	Rejected int `json:"rejected,omitempty"`
}

// ShardResult is the canonical result of an estimate job submitted with
// a ShardSpec: the per-trial rows of [Offset, Offset+Count) in trial
// order. MergeShards folds a covering set of these back into the parent
// job's canonical EstimateResult bytes.
type ShardResult struct {
	Offset int        `json:"offset"`
	Rows   []TrialRow `json:"rows"`
}

// TableResult is the canonical encoding of an experiment table — the
// exp.Table JSON shape (`{"id","title","claim","columns","rows","notes"}`).
type TableResult struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Claim   string     `json:"claim"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes"`
}

// GiantRow / ClusterRow fix the JSON field order of percolation
// results.
type GiantRow struct {
	P              float64 `json:"p"`
	GiantFraction  float64 `json:"giantFraction"`
	SecondFraction float64 `json:"secondFraction"`
	Components     uint64  `json:"components"`
}

type ClusterRow struct {
	P           float64 `json:"p"`
	Theta       float64 `json:"theta"`
	Chi         float64 `json:"chi"`
	MeanCluster float64 `json:"meanCluster"`
	Clusters    uint64  `json:"clusters"`
}

// GiantResult is the result payload of a percolation request with
// Clusters false; ClusterResult the payload with Clusters true.
type GiantResult struct {
	Rows []GiantRow `json:"rows"`
}

type ClusterResult struct {
	Rows []ClusterRow `json:"rows"`
}
