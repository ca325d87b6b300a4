package faultroute_test

import (
	"context"
	"errors"
	"testing"

	"faultroute"
)

// The facade tests double as integration tests: they exercise the whole
// stack (topology -> percolation -> prober -> router -> stats) through
// the public API only.

func TestFacadeQuickstartFlow(t *testing.T) {
	g, err := faultroute.NewHypercube(10)
	if err != nil {
		t.Fatal(err)
	}
	spec := faultroute.Spec{
		Graph:  g,
		P:      0.5,
		Router: faultroute.NewPathFollowRouter(),
		Mode:   faultroute.ModeLocal,
	}
	c, err := faultroute.NewLocal().Estimate(context.Background(), spec, 0, g.Antipode(0), 10, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Trials != 10 || c.Median <= 0 {
		t.Fatalf("complexity = %+v", c)
	}
}

func TestFacadeSingleRun(t *testing.T) {
	g, err := faultroute.NewMesh(2, 12)
	if err != nil {
		t.Fatal(err)
	}
	spec := faultroute.Spec{
		Graph:  g,
		P:      0.7,
		Router: faultroute.NewPathFollowRouter(),
		Mode:   faultroute.ModeLocal,
	}
	dst, err := g.VertexAt(11, 11)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 10; seed++ {
		out, err := faultroute.Run(spec, 0, dst, seed)
		if err != nil {
			t.Fatal(err)
		}
		if out.Err != nil {
			if errors.Is(out.Err, faultroute.ErrNoPath) {
				continue
			}
			t.Fatal(out.Err)
		}
		s := faultroute.Percolate(g, 0.7, seed)
		if err := faultroute.ValidatePath(s, out.Path, 0, dst); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFacadePercolationAndComponents(t *testing.T) {
	g, err := faultroute.NewDeBruijn(8)
	if err != nil {
		t.Fatal(err)
	}
	s := faultroute.Percolate(g, 0.8, 7)
	comps, err := faultroute.LabelComponents(s)
	if err != nil {
		t.Fatal(err)
	}
	if comps.GiantFraction() <= 0.3 {
		t.Fatalf("giant fraction = %v at p=0.8", comps.GiantFraction())
	}
}

func TestFacadeProbersEnforceModels(t *testing.T) {
	g, err := faultroute.NewRing(12)
	if err != nil {
		t.Fatal(err)
	}
	s := faultroute.Percolate(g, 1, 1)
	local := faultroute.NewLocalProber(s, 0, 0)
	if _, err := local.Probe(5, 6); !errors.Is(err, faultroute.ErrNotLocal) {
		t.Fatalf("err = %v, want ErrNotLocal", err)
	}
	oracle := faultroute.NewOracleProber(s, 0)
	if _, err := oracle.Probe(5, 6); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeGnpSeparation(t *testing.T) {
	g, err := faultroute.NewComplete(200)
	if err != nil {
		t.Fatal(err)
	}
	local := faultroute.Spec{
		Graph: g, P: 3.0 / 200,
		Router: faultroute.NewGnpLocalRouter(1), Mode: faultroute.ModeLocal,
	}
	oracle := faultroute.Spec{
		Graph: g, P: 3.0 / 200,
		Router: faultroute.NewGnpOracleRouter(1), Mode: faultroute.ModeOracle,
	}
	cl, err := faultroute.NewLocal().Estimate(context.Background(), local, 0, 199, 8, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	co, err := faultroute.NewLocal().Estimate(context.Background(), oracle, 0, 199, 8, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if co.Mean >= cl.Mean {
		t.Fatalf("oracle mean %v not below local mean %v", co.Mean, cl.Mean)
	}
}

func TestFacadeDoubleTreeOracle(t *testing.T) {
	g, err := faultroute.NewDoubleTree(8)
	if err != nil {
		t.Fatal(err)
	}
	spec := faultroute.Spec{
		Graph: g, P: 0.85,
		Router: faultroute.NewDoubleTreeOracleRouter(), Mode: faultroute.ModeOracle,
	}
	succ := 0
	for seed := uint64(0); seed < 10; seed++ {
		out, err := faultroute.Run(spec, g.RootA(), g.RootB(), seed)
		if err != nil {
			t.Fatal(err)
		}
		if out.Err == nil {
			succ++
		}
	}
	if succ == 0 {
		t.Fatal("no successes at p=0.85")
	}
}

func TestFacadeExperimentsRegistry(t *testing.T) {
	if len(faultroute.Experiments()) != 21 {
		t.Fatalf("registry size = %d", len(faultroute.Experiments()))
	}
	if _, err := faultroute.ExperimentByID("E1"); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSimulator(t *testing.T) {
	g, err := faultroute.NewMesh(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	s := faultroute.Percolate(g, 0.9, 1)
	out, err := faultroute.SimulateDistributedBFS(s, 0, faultroute.Vertex(g.Order()-1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Found {
		t.Fatal("flood failed at p=0.9")
	}
}

func TestFacadeOverlay(t *testing.T) {
	o, err := faultroute.NewOverlay(8, 0.95, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.GreedyLookup(0, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("greedy lookup failed at p=0.95")
	}
}

func TestFacadeGreedyRouter(t *testing.T) {
	g, err := faultroute.NewHypercube(9)
	if err != nil {
		t.Fatal(err)
	}
	spec := faultroute.Spec{
		Graph: g, P: 0.9,
		Router: faultroute.NewGreedyRouter(), Mode: faultroute.ModeLocal,
	}
	c, err := faultroute.NewLocal().Estimate(context.Background(), spec, 0, g.Antipode(0), 5, 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Trials == 0 {
		t.Fatal("no successful trials")
	}
}

func TestFacadeBFSRouterOnAllFamilies(t *testing.T) {
	builders := []func() (faultroute.Graph, error){
		func() (faultroute.Graph, error) { return faultroute.NewHypercube(6) },
		func() (faultroute.Graph, error) { return faultroute.NewMesh(2, 6) },
		func() (faultroute.Graph, error) { return faultroute.NewTorus(2, 5) },
		func() (faultroute.Graph, error) { return faultroute.NewDoubleTree(4) },
		func() (faultroute.Graph, error) { return faultroute.NewComplete(20) },
		func() (faultroute.Graph, error) { return faultroute.NewDeBruijn(6) },
		func() (faultroute.Graph, error) { return faultroute.NewShuffleExchange(6) },
		func() (faultroute.Graph, error) { return faultroute.NewButterfly(3) },
		func() (faultroute.Graph, error) { return faultroute.NewCycleMatching(32, 1) },
		func() (faultroute.Graph, error) { return faultroute.NewRing(16) },
	}
	for _, build := range builders {
		g, err := build()
		if err != nil {
			t.Fatal(err)
		}
		spec := faultroute.Spec{
			Graph: g, P: 0.9,
			Router: faultroute.NewBFSRouter(), Mode: faultroute.ModeLocal,
		}
		u := faultroute.Vertex(0)
		v := faultroute.Vertex(g.Order() - 1)
		c, err := faultroute.NewLocal().Estimate(context.Background(), spec, u, v, 3, 100, 9)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if c.Trials != 3 {
			t.Fatalf("%s: trials = %d", g.Name(), c.Trials)
		}
	}
}
