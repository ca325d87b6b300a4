package bench

import (
	"fmt"
	"strings"
	"time"

	"faultroute/api"
	"faultroute/internal/cache"
	"faultroute/serve"
)

// smokeCacheBytes is the smoke preset's memory-tier budget. It is sized
// to hold one cell's full catalog (8 specs at ~205 bytes each) but not
// both cells' combined footprint, so the sweep demonstrably evicts —
// the eviction counters land in the final scrape — while every evicted
// entry belongs to an already-finished cell and is never fetched again
// (cells never share specs, see catalogSpec), keeping the run
// deterministic.
const smokeCacheBytes = 1800

// Preset is a named, self-contained sweep: the grid (or an explicit
// cell list), the run options, and the self-host sizing to use when no
// external targets are given.
type Preset struct {
	Name        string
	Description string
	Grid        Grid
	// Cells, when non-empty, is the sweep's explicit cell list and
	// replaces the Grid expansion — for presets whose cells differ in
	// ways a cartesian grid cannot express (hedging on vs off).
	Cells   []Cell
	Options Options
	Serve   serve.Options
	// Fleet, when N > 0, makes the preset self-host N independent
	// daemons instead of one; Delay is daemon 0's serve.Options.TaskDelay
	// — the deliberately slow backend of a heterogeneous cell.
	Fleet Fleet
}

// Fleet sizes a preset's self-hosted multi-daemon target.
type Fleet struct {
	N     int
	Delay time.Duration
}

// FleetDelays expands the fleet's per-daemon task delays (daemon 0
// slowed, the rest unthrottled) for SelfHostFleet.
func (f Fleet) FleetDelays() []time.Duration {
	if f.N <= 0 || f.Delay <= 0 {
		return nil
	}
	return []time.Duration{f.Delay}
}

// SweepCells returns the preset's cell list: the explicit Cells when
// set, the Grid expansion otherwise.
func (p Preset) SweepCells() []Cell {
	if len(p.Cells) > 0 {
		return p.Cells
	}
	return p.Grid.Cells()
}

// Presets returns the named sweeps, most important first.
func Presets() []Preset {
	return []Preset{
		{
			Name: "millions-of-users",
			Description: "thousands of concurrent clients with Zipf-distributed spec popularity; " +
				"asserts that duplicate coalescing and the content-addressed cache absorb >= 90% of submissions",
			Grid: Grid{
				Clients:  []int{2000},
				Trials:   []int{16},
				Graphs:   []api.GraphSpec{{Family: "hypercube", N: 8}},
				Catalogs: []int{256},
				Zipfs:    []float64{1.1},
				Ops:      8000,
			},
			Options: Options{MinAbsorbed: 0.9},
			Serve:   serve.Options{Executors: 4, QueueDepth: 256},
		},
		{
			Name: "smoke",
			Description: "tiny two-cell grid (cold catalog vs duplicate-heavy) for CI over a byte-bounded " +
				"result store: exercises the whole harness path, LRU eviction included, in seconds",
			Grid: Grid{
				Clients:  []int{4},
				Trials:   []int{8},
				Graphs:   []api.GraphSpec{{Family: "hypercube", N: 6}},
				Catalogs: []int{8, 2},
				Zipfs:    []float64{1.1},
				Ops:      40,
			},
			Serve: serve.Options{Executors: 2, QueueDepth: 32, Store: cache.NewBounded(smokeCacheBytes)},
		},
		{
			Name: "hedge-straggler",
			Description: "heterogeneous 3-daemon fleet with one 5x-slowed backend, driven through a dispatch pool; " +
				"asserts straggler hedging cuts wall time under 0.6x of the unhedged run, with byte-identical results",
			Cells: []Cell{
				{Clients: 1, Ops: 1, Trials: 96, Catalog: 1,
					Graph: api.GraphSpec{Family: "hypercube", N: 7},
					Pool:  true, Hedge: false},
				{Clients: 1, Ops: 1, Trials: 96, Catalog: 1,
					Graph: api.GraphSpec{Family: "hypercube", N: 7},
					Pool:  true, Hedge: true, HedgeAfter: 50 * time.Millisecond},
			},
			Options: Options{HedgeSpeedup: 0.6},
			Serve:   serve.Options{Executors: 2, QueueDepth: 64},
			Fleet:   Fleet{N: 3, Delay: 250 * time.Millisecond},
		},
	}
}

// PresetByName looks a preset up by name.
func PresetByName(name string) (Preset, error) {
	names := make([]string, 0, 3)
	for _, p := range Presets() {
		if p.Name == name {
			return p, nil
		}
		names = append(names, p.Name)
	}
	return Preset{}, fmt.Errorf("bench: unknown preset %q (have %s)", name, strings.Join(names, ", "))
}
