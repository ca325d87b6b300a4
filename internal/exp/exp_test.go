package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 21 {
		t.Fatalf("registry has %d experiments, want 21", len(all))
	}
	for i, e := range all {
		want := "E" + strconv.Itoa(i+1)
		if e.ID != want {
			t.Fatalf("experiment %d has ID %s, want %s", i, e.ID, want)
		}
		if e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Fatalf("%s missing metadata", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("E3"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("E99"); !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("err = %v", err)
	}
}

func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-scale experiments still take seconds")
	}
	cfg := Config{Seed: 42, Scale: ScaleQuick}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tbl, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if tbl.ID != e.ID {
				t.Fatalf("table ID %s != experiment ID %s", tbl.ID, e.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Fatalf("%s row width %d != %d columns", e.ID, len(row), len(tbl.Columns))
				}
			}
			var buf bytes.Buffer
			if err := tbl.Render(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), e.ID) {
				t.Fatalf("render missing experiment ID:\n%s", buf.String())
			}
		})
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments twice")
	}
	// A representative, cheap subset: same config must give identical
	// tables.
	for _, id := range []string{"E5", "E9", "E13"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Seed: 7, Scale: ScaleQuick}
		t1, err := e.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t2, err := e.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b1, b2 bytes.Buffer
		if err := t1.Render(&b1); err != nil {
			t.Fatal(err)
		}
		if err := t2.Render(&b2); err != nil {
			t.Fatal(err)
		}
		if b1.String() != b2.String() {
			t.Fatalf("%s nondeterministic:\n%s\nvs\n%s", id, b1.String(), b2.String())
		}
	}
}

// TestExperimentsWorkerCountInvariant is the parallel engine's
// experiment-level guarantee: every rendered table is byte-identical
// whether its sweep runs on one worker or several. Worker counts that
// do not divide a table's trials per cell matter most: with one flat
// map per table, a worker's run of trials then crosses cell borders.
func TestExperimentsWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every quick table four times")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			render := func(workers int) string {
				tbl, err := e.Run(Config{Seed: 3, Scale: ScaleQuick, Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				var b bytes.Buffer
				if err := tbl.Render(&b); err != nil {
					t.Fatal(err)
				}
				return b.String()
			}
			seq := render(1)
			for _, workers := range []int{2, 3, 8} {
				if par := render(workers); par != seq {
					t.Fatalf("table depends on worker count:\n%s\nvs (workers=%d)\n%s", seq, workers, par)
				}
			}
		})
	}
}

// TestExperimentTablesGolden pins the bytes of every quick table: the
// SHA-256 of the concatenated MarshalJSON of E1..E21, in ID order, at
// seeds 1, 2 and 3 (seed-major), with the default worker count. A change
// to any sampled instance, conditioning decision, routing run or table
// format moves it.
func TestExperimentTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every quick table three times")
	}
	const want = "47039ed2ef0e1cd3fd41ffadd6c964f0ab32056b5bf4252b48287d9f2159e968"
	h := sha256.New()
	for seed := uint64(1); seed <= 3; seed++ {
		for _, e := range All() {
			tbl, err := e.Run(Config{Seed: seed, Scale: ScaleQuick})
			if err != nil {
				t.Fatalf("%s seed %d: %v", e.ID, seed, err)
			}
			b, err := tbl.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("quick tables hash %s, want %s", got, want)
	}
}

func TestSeedChangesOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments twice")
	}
	e, err := ByID("E9")
	if err != nil {
		t.Fatal(err)
	}
	t1, err := e.Run(Config{Seed: 1, Scale: ScaleQuick})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := e.Run(Config{Seed: 2, Scale: ScaleQuick})
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := t1.Render(&b1); err != nil {
		t.Fatal(err)
	}
	if err := t2.Render(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() == b2.String() {
		t.Fatal("different seeds produced identical Monte Carlo tables (suspicious)")
	}
}

func TestConfigSelectors(t *testing.T) {
	q := Config{Scale: ScaleQuick}
	f := Config{Scale: ScaleFull}
	if q.qf(1, 2) != 1 || f.qf(1, 2) != 2 {
		t.Fatal("qf wrong")
	}
	if q.qfF(0.5, 1.5) != 0.5 || f.qfF(0.5, 1.5) != 1.5 {
		t.Fatal("qfF wrong")
	}
	if q.qfInts([]int{1}, []int{2})[0] != 1 || f.qfInts([]int{1}, []int{2})[0] != 2 {
		t.Fatal("qfInts wrong")
	}
	if q.qfFloats([]float64{1}, []float64{2})[0] != 1 {
		t.Fatal("qfFloats wrong")
	}
	if ScaleQuick.String() != "quick" || ScaleFull.String() != "full" {
		t.Fatal("Scale strings wrong")
	}
}

// TestParCellsRejectsAliasedSeeds checks that a cell with more trials
// than trialSeed keeps distinct fails before running any trial.
func TestParCellsRejectsAliasedSeeds(t *testing.T) {
	cfg := Config{Seed: 1, Workers: 1}
	if cfg.trialSeed(0, 1<<24) != cfg.trialSeed(1, 0) {
		t.Fatal("trial 1<<24 of cell 0 no longer aliases trial 0 of cell 1; revisit maxTrials")
	}
	calls := 0
	_, err := parCells(cfg, 1, 1<<24+1, func(int, int) (int, error) {
		calls++
		return 0, nil
	})
	if err == nil || calls != 0 {
		t.Fatalf("parCells(1, 1<<24+1) = %v after %d calls, want an error before any call", err, calls)
	}
}

// TestParCells checks the flat (cell, trial) map: results come back
// grouped per cell in trial order, the lowest failing (cell, trial)
// reports its error, progress counts cells*trials trials, and a cell
// with more trials than distinct seeds errors before any call, at every
// worker count.
func TestParCells(t *testing.T) {
	const cells, trials = 7, 5
	for _, workers := range []int{1, 2, 3, 8} {
		var calls atomic.Int64
		if _, err := parCells(Config{Workers: workers}, 3, maxTrials+1, func(int, int) (int, error) {
			calls.Add(1)
			return 0, nil
		}); err == nil || calls.Load() != 0 {
			t.Fatalf("workers=%d: 3 cells of maxTrials+1 = %v after %d calls, want an error before any call", workers, err, calls.Load())
		}

		var done atomic.Int64
		cfg := Config{Workers: workers, Progress: func(delta int) { done.Add(int64(delta)) }}
		got, err := parCells(cfg, cells, trials, func(cell, trial int) ([2]int, error) {
			return [2]int{cell, trial}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != cells {
			t.Fatalf("workers=%d: %d cells, want %d", workers, len(got), cells)
		}
		for c, rs := range got {
			if len(rs) != trials {
				t.Fatalf("workers=%d: cell %d has %d results, want %d", workers, c, len(rs), trials)
			}
			for tr, r := range rs {
				if r != [2]int{c, tr} {
					t.Fatalf("workers=%d: cells[%d][%d] = %v", workers, c, tr, r)
				}
			}
		}
		if n := done.Load(); n != cells*trials {
			t.Fatalf("workers=%d: progress counted %d trials, want %d", workers, n, cells*trials)
		}

		// (2, 4) precedes (3, 0) and (5, 1) in flat order, so its error
		// is the one a sequential sweep would have stopped on.
		for rep := 0; rep < 20; rep++ {
			_, err := parCells(Config{Workers: workers}, cells, trials, func(cell, trial int) (int, error) {
				if (cell == 2 && trial == 4) || (cell == 3 && trial == 0) || (cell == 5 && trial == 1) {
					return 0, fmt.Errorf("fail at (%d, %d)", cell, trial)
				}
				return 0, nil
			})
			if err == nil || err.Error() != "fail at (2, 4)" {
				t.Fatalf("workers=%d: err = %v, want fail at (2, 4)", workers, err)
			}
		}
	}
}

func TestTrialSeedsDistinct(t *testing.T) {
	cfg := Config{Seed: 9}
	seen := map[uint64]bool{}
	for cell := uint64(0); cell < 20; cell++ {
		for trial := uint64(0); trial < 20; trial++ {
			s := cfg.trialSeed(cell, trial)
			if seen[s] {
				t.Fatalf("duplicate trial seed at (%d, %d)", cell, trial)
			}
			seen[s] = true
		}
	}
}
