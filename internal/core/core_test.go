package core

import (
	"context"
	"errors"
	"testing"

	"faultroute/internal/graph"
	"faultroute/internal/probe"
	"faultroute/internal/route"
)

func TestRunFullGraph(t *testing.T) {
	g := graph.MustHypercube(6)
	spec := Spec{Graph: g, P: 1, Router: route.NewBFSLocal(), Mode: ModeLocal}
	out, err := Run(spec, 0, g.Antipode(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Err != nil {
		t.Fatalf("routing failed: %v", out.Err)
	}
	if out.Path.Len() != 6 {
		t.Fatalf("path length = %d", out.Path.Len())
	}
	if out.Probes <= 0 || out.Calls < out.Probes {
		t.Fatalf("probes = %d calls = %d", out.Probes, out.Calls)
	}
}

func TestRunDisconnected(t *testing.T) {
	g := graph.MustRing(10)
	spec := Spec{Graph: g, P: 0, Router: route.NewBFSLocal(), Mode: ModeLocal}
	out, err := Run(spec, 0, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(out.Err, route.ErrNoPath) {
		t.Fatalf("outcome err = %v", out.Err)
	}
}

func TestRunBudgetCensors(t *testing.T) {
	g := graph.MustHypercube(8)
	spec := Spec{Graph: g, P: 1, Router: route.NewBFSLocal(), Mode: ModeLocal, Budget: 5}
	out, err := Run(spec, 0, g.Antipode(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(out.Err, probe.ErrBudget) {
		t.Fatalf("outcome err = %v", out.Err)
	}
	if out.Probes != 5 {
		t.Fatalf("probes at censoring = %d", out.Probes)
	}
}

func TestRunValidatesSpec(t *testing.T) {
	if _, err := Run(Spec{}, 0, 1, 1); err == nil {
		t.Fatal("empty spec accepted")
	}
	g := graph.MustRing(5)
	if _, err := Run(Spec{Graph: g, P: 2, Router: route.NewBFSLocal()}, 0, 1, 1); err == nil {
		t.Fatal("p > 1 accepted")
	}
	if _, err := Run(Spec{Graph: g, P: 0.5, Router: route.NewBFSLocal(), Mode: Mode(9)}, 0, 1, 1); err == nil {
		t.Fatal("bogus mode accepted")
	}
}

func TestRunOracleMode(t *testing.T) {
	g := graph.MustDoubleTree(6)
	spec := Spec{Graph: g, P: 0.9, Router: route.NewDoubleTreeOracle(), Mode: ModeOracle}
	ok := false
	for seed := uint64(0); seed < 10; seed++ {
		out, err := Run(spec, g.RootA(), g.RootB(), seed)
		if err != nil {
			t.Fatal(err)
		}
		if out.Err == nil {
			ok = true
			break
		}
	}
	if !ok {
		t.Fatal("oracle router never succeeded at p=0.9")
	}
}

func TestRunDeterministicInSeed(t *testing.T) {
	g := graph.MustMesh(2, 8)
	spec := Spec{Graph: g, P: 0.6, Router: route.NewPathFollow(), Mode: ModeLocal}
	a, err := Run(spec, 0, graph.Vertex(g.Order()-1), 33)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec, 0, graph.Vertex(g.Order()-1), 33)
	if err != nil {
		t.Fatal(err)
	}
	if a.Probes != b.Probes || (a.Err == nil) != (b.Err == nil) {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestEstimateConditionsOnConnectivity(t *testing.T) {
	g := graph.MustMesh(2, 8)
	spec := Spec{Graph: g, P: 0.55, Router: route.NewPathFollow(), Mode: ModeLocal}
	c, err := EstimateCtx(context.Background(), spec, 0, graph.Vertex(g.Order()-1), 10, 200, 5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Trials != 10 {
		t.Fatalf("trials = %d", c.Trials)
	}
	if c.Mean <= 0 {
		t.Fatalf("mean = %v", c.Mean)
	}
	// At p=0.55 near criticality many samples get rejected.
	if c.Rejected == 0 {
		t.Log("no rejections at p=0.55 (possible but unusual)")
	}
}

func TestEstimateCensoredRuns(t *testing.T) {
	g := graph.MustHypercube(8)
	spec := Spec{Graph: g, P: 1, Router: route.NewBFSLocal(), Mode: ModeLocal, Budget: 3}
	c, err := EstimateCtx(context.Background(), spec, 0, g.Antipode(0), 5, 10, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Censored != 5 || c.Trials != 0 {
		t.Fatalf("censored = %d trials = %d", c.Censored, c.Trials)
	}
}

func TestEstimateFailsWhenConditioningImpossible(t *testing.T) {
	g := graph.MustRing(10)
	spec := Spec{Graph: g, P: 0, Router: route.NewBFSLocal(), Mode: ModeLocal}
	if _, err := EstimateCtx(context.Background(), spec, 0, 5, 3, 5, 1, 1, nil); err == nil {
		t.Fatal("conditioning on an impossible event succeeded")
	}
}

func TestEstimateValidation(t *testing.T) {
	g := graph.MustRing(10)
	spec := Spec{Graph: g, P: 1, Router: route.NewBFSLocal(), Mode: ModeLocal}
	if _, err := EstimateCtx(context.Background(), spec, 0, 5, 0, 5, 1, 1, nil); err == nil {
		t.Fatal("zero trials accepted")
	}
}

func TestModeString(t *testing.T) {
	if ModeLocal.String() != "local" || ModeOracle.String() != "oracle" {
		t.Fatal("mode strings wrong")
	}
}
