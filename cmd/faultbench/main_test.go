package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"faultroute/bench"
	"faultroute/serve"
)

// TestRunSmokePresetSelfHosted runs the CI smoke preset end to end —
// multi-cell grid, self-hosted service — and checks the written report
// is schema-valid with one row per cell.
func TestRunSmokePresetSelfHosted(t *testing.T) {
	out := filepath.Join(t.TempDir(), "rows.json")
	if err := run([]string{"-preset", "smoke", "-q", "-out", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := bench.ValidateReport(data); err != nil {
		t.Fatalf("report is not schema-valid: %v\n%s", err, data)
	}
}

// TestRunGridFlagsAgainstDaemon drives an explicit grid against an
// external daemon URL (the cluster.sh shape) instead of self-hosting.
func TestRunGridFlagsAgainstDaemon(t *testing.T) {
	svc := serve.New(serve.Options{Executors: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	out := filepath.Join(t.TempDir(), "rows.json")
	err := run([]string{
		"-targets", srv.URL,
		"-clients", "4", "-trials", "8", "-graphs", "hypercube:6,mesh:4",
		"-catalogs", "2", "-zipfs", "1.1", "-ops", "24", "-q", "-out", out,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := bench.ValidateReport(data); err != nil {
		t.Fatalf("report is not schema-valid: %v", err)
	}
}

func TestRunListPresets(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-preset", "nope"},
		{"-clients", "ten"},
		{"-graphs", "hypercube"},      // missing :n
		{"-graphs", "klein:4"},        // unknown family
		{"-graphs", "hypercube:0"},    // invalid size
		{"-zipfs", "-1", "-ops", "4"}, // negative skew rejected by the sampler
	} {
		if err := run(append(args, "-q")); err == nil {
			t.Fatalf("run(%v) accepted bad input", args)
		}
	}
}

func TestRunHelpAndBadFlags(t *testing.T) {
	if err := run([]string{"-h"}); err != nil {
		t.Fatalf("-h returned %v, want nil", err)
	}
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}
