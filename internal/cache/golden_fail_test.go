// Golden-key pin for the FailSpec / kleinberg wire extension.
//
// PR 10 added an optional failure-model axis (EstimateSpec.Fail,
// PercolationSpec.Fail) and the kleinberg graph family. Both ride on
// wire-frozen structs whose SHA-256 content addresses clients persist,
// so the extension must be invisible to every pre-existing spec: the
// new pointer field is tagged omitempty and appended last, which means
// a nil Fail produces the exact bytes PR 9 produced. This file pins
// that claim twice — first on the raw canonical JSON, then on the new
// addresses the extension mints — so any later reordering, retagging,
// or de-pointering of the field fails loudly.
package cache_test

import (
	"encoding/json"
	"testing"

	"faultroute/api"
	"faultroute/internal/cache"
)

// TestPreFailSpecEncodingUnchanged pins the canonical JSON of specs
// that predate the failure-model axis. If the Fail field ever stops
// being omitempty-nil-invisible (or moves off the end of the struct),
// these byte pins — and with them every persisted cache key — break.
func TestPreFailSpecEncodingUnchanged(t *testing.T) {
	dst := uint64(4095)
	est := api.EstimateSpec{
		Graph:  api.GraphSpec{Family: "hypercube", N: 12},
		P:      0.4,
		Router: "path-follow",
		Mode:   "local",
		Src:    0, Dst: &dst,
		Trials: 50, MaxTries: 100, Seed: 1,
	}
	wantEst := `{"graph":{"family":"hypercube","n":12},"p":0.4,"router":"path-follow",` +
		`"mode":"local","budget":0,"src":0,"dst":4095,"trials":50,"maxTries":100,"seed":1}`
	if b, _ := json.Marshal(est); string(b) != wantEst {
		t.Errorf("pre-FailSpec estimate encoding drifted:\n got %s\nwant %s", b, wantEst)
	}

	perc := api.PercolationSpec{
		Graph:  api.GraphSpec{Family: "mesh", D: 2, Side: 24},
		Ps:     []float64{0.3, 0.5, 0.7},
		Trials: 10, Seed: 1,
	}
	wantPerc := `{"graph":{"family":"mesh","d":2,"side":24},"ps":[0.3,0.5,0.7],` +
		`"trials":10,"seed":1,"clusters":false}`
	if b, _ := json.Marshal(perc); string(b) != wantPerc {
		t.Errorf("pre-FailSpec percolation encoding drifted:\n got %s\nwant %s", b, wantPerc)
	}
}

// TestGoldenKeysForFailureModels pins the content addresses the new
// axis mints. Computed once at introduction (PR 10); wire-frozen from
// here on, exactly like the PR 3 pins above.
func TestGoldenKeysForFailureModels(t *testing.T) {
	estDst := uint64(127)
	kleDst := uint64(63)
	cases := []struct {
		name string
		kind string
		spec any
		want string
	}{
		{
			name: "estimate under a regional outage",
			kind: "estimate",
			spec: api.EstimateSpec{
				Graph:  api.GraphSpec{Family: "hypercube", N: 7},
				P:      0.6,
				Router: "path-follow",
				Mode:   "local",
				Src:    0, Dst: &estDst,
				Trials: 6, MaxTries: 100, Seed: 1,
				Fail: &api.FailSpec{Model: "region", Radius: 2, Count: 1, Seed: 5},
			},
			want: "d6db4956d4efde0806ce10de9297a73add9053fcd03bda5f42138f333a011307",
		},
		{
			name: "estimate on a kleinberg small world",
			kind: "estimate",
			spec: api.EstimateSpec{
				Graph:  api.GraphSpec{Family: "kleinberg", D: 2, Side: 8, Seed: 3},
				P:      0.8,
				Router: "greedy",
				Mode:   "local",
				Src:    0, Dst: &kleDst,
				Trials: 4, MaxTries: 100, Seed: 2,
			},
			want: "575ef5c44de77e89a1758bb25c0e910e455128229f39e7a9857c75d4bb7f4269",
		},
		{
			name: "percolation under uniform node kills",
			kind: "percolation",
			spec: api.PercolationSpec{
				Graph:  api.GraphSpec{Family: "torus", D: 2, Side: 8},
				Ps:     []float64{0.4, 0.6},
				Trials: 5, Seed: 2,
				Fail: &api.FailSpec{Model: "nodes", Count: 3, Seed: 9},
			},
			want: "f366109be434fc7e48fdf85d19ad4b014072ea947ec62ae29d478a92bd5b86c3",
		},
	}
	for _, tc := range cases {
		got, err := cache.Key(tc.kind, tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: key drifted:\n got %s\nwant %s\n"+
				"(FailSpec and the kleinberg GraphSpec fields are wire-frozen as of "+
				"their introduction)", tc.name, got, tc.want)
		}
	}

	// The kleinberg pin through the full normalization path: a sparse
	// submission must land on the same address as the explicit form.
	sparse := api.Request{
		Kind: api.KindEstimate,
		Estimate: &api.EstimateSpec{
			Graph:  api.GraphSpec{Family: "kleinberg", D: 2, Side: 8, Seed: 3},
			P:      0.8,
			Trials: 4, Seed: 2,
		},
	}
	key, err := api.Key(sparse)
	if err != nil {
		t.Fatal(err)
	}
	if want := cases[1].want; key != want {
		t.Fatalf("sparse kleinberg submission key:\n got %s\nwant %s", key, want)
	}
}
