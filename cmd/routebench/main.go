// Command routebench regenerates the paper's evaluation: it runs the
// experiments E1..E21 cataloged in EXPERIMENTS.md and prints their
// tables.
//
// Usage:
//
//	routebench -list                 enumerate experiments
//	routebench                       run everything at quick scale
//	routebench -scale full           run everything at paper scale
//	routebench -exp E3,E7 -seed 7    run a subset
//	routebench -workers 4            cap trial-level parallelism
//	routebench -exp E1 -format json  canonical JSON (what faultrouted caches)
//	routebench -timeout 30s          abort a run that overstays its budget
//	routebench -backends http://a:8080,http://b:8080
//	                                 dispatch the experiments across a pool of
//	                                 faultrouted backends (same bytes, more machines)
//
// Tables are bit-identical for every -workers value (each trial's
// randomness is split from the seed and the trial index, never from
// scheduling), so -workers only changes the wall-clock time.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"faultroute"
	"faultroute/api"
	"faultroute/dispatch"
	"faultroute/internal/exp"
)

func main() {
	switch err := run(os.Args[1:]); {
	case err == nil:
	case errors.Is(err, errUsage):
		os.Exit(2) // the flag package already printed the error and usage
	default:
		fmt.Fprintln(os.Stderr, "routebench:", err)
		os.Exit(1)
	}
}

// errUsage marks a flag-parse failure whose message the flag package has
// already printed alongside the usage text.
var errUsage = errors.New("usage")

func run(args []string) error {
	fs := flag.NewFlagSet("routebench", flag.ContinueOnError)
	var (
		list     = fs.Bool("list", false, "list experiments and exit")
		ids      = fs.String("exp", "", "comma-separated experiment IDs (default: all)")
		seed     = fs.Uint64("seed", 1, "base random seed (same seed, same tables; 0 selects 1, the wire default)")
		scale    = fs.String("scale", "quick", "parameter scale: quick or full")
		plots    = fs.Bool("plot", false, "also render ASCII figures for experiments that define them")
		format   = fs.String("format", "text", "table format: text, csv, markdown, or json (the canonical encoding the faultrouted cache serves)")
		workers  = fs.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for trial-level parallelism (results are identical for any value)")
		timeout  = fs.Duration("timeout", 0, "abort the run after this long, e.g. 30s (0 = no limit)")
		backends = fs.String("backends", "", "comma-separated faultrouted base URLs; when set, experiments are dispatched across the pool instead of running in-process (bytes are identical either way)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	if *seed == 0 {
		*seed = 1 // wire normalization's default; applied up front so every format agrees
	}
	// -workers defaults to THIS machine's core count — right for local
	// runs, wrong to impose on remote backends. Forward it over the wire
	// only when the user explicitly asked for a cap.
	workersSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "workers" {
			workersSet = true
		}
	})

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-4s %s\n     %s\n", e.ID, e.Title, e.Claim)
		}
		return nil
	}

	switch *format {
	case "text", "csv", "markdown", "json":
	default:
		return fmt.Errorf("unknown format %q (want text, csv, markdown or json)", *format)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := exp.Config{Seed: *seed, Workers: *workers, Context: ctx}
	switch *scale {
	case "quick":
		cfg.Scale = exp.ScaleQuick
	case "full":
		cfg.Scale = exp.ScaleFull
	default:
		return fmt.Errorf("unknown scale %q (want quick or full)", *scale)
	}

	var chosen []exp.Experiment
	if *ids == "" {
		chosen = exp.All()
	} else {
		for _, id := range strings.Split(*ids, ",") {
			e, err := exp.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			chosen = append(chosen, e)
		}
	}

	// Distributed execution: every chosen experiment becomes one wire
	// job spread across the -backends pool (whole-job dispatch with
	// failover — see faultroute/dispatch), and the rendered tables are
	// decoded from exactly the canonical bytes the backends cached.
	// -plot keeps the in-process path: figures never cross the wire.
	if *backends != "" {
		if *plots {
			return fmt.Errorf("-plot needs the in-process tables; drop -plot or -backends")
		}
		pool, err := dispatch.New(dispatch.ParseBackends(*backends))
		if err != nil {
			return err
		}
		reqWorkers := 0 // 0 = each backend's own default
		if workersSet {
			reqWorkers = *workers
		}
		reqs := make([]api.Request, len(chosen))
		for i, e := range chosen {
			reqs[i] = api.Request{
				Kind:       api.KindExperiment,
				Experiment: &api.ExperimentSpec{ID: e.ID, Seed: *seed, Scale: *scale},
				Workers:    reqWorkers,
			}
		}
		results, err := pool.DoBatch(ctx, reqs)
		if err != nil {
			return err
		}
		if *format == "text" {
			fmt.Printf("faultroute evaluation — scale=%s seed=%d (%d backends)\n\n", *scale, *seed, len(pool.Backends()))
		}
		for i, res := range results {
			if *format == "json" {
				if _, err := os.Stdout.Write(res.Body); err != nil {
					return err
				}
				continue
			}
			tr, err := res.Table()
			if err != nil {
				return fmt.Errorf("%s: %w", chosen[i].ID, err)
			}
			tbl := &exp.Table{ID: tr.ID, Title: tr.Title, Claim: tr.Claim, Columns: tr.Columns, Rows: tr.Rows, Notes: tr.Notes}
			if err := render(tbl, *format); err != nil {
				return err
			}
		}
		return nil
	}

	// JSON is the canonical wire encoding: run it through the shared
	// Runner API so the emitted bytes are, by construction, the same
	// canonical JSON faultrouted caches and the remote client decodes.
	// (-plot needs the in-process *Table for its figures and keeps the
	// direct path; its tables encode identically.)
	if *format == "json" && !*plots {
		local := faultroute.NewLocal()
		for _, e := range chosen {
			req := api.Request{
				Kind:       api.KindExperiment,
				Experiment: &api.ExperimentSpec{ID: e.ID, Seed: *seed, Scale: *scale},
				Workers:    *workers,
			}
			res, err := local.Do(ctx, req)
			if err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			if _, err := os.Stdout.Write(res.Body); err != nil {
				return err
			}
		}
		return nil
	}

	if *format == "text" {
		fmt.Printf("faultroute evaluation — scale=%s seed=%d\n\n", cfg.Scale, cfg.Seed)
	}
	for _, e := range chosen {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		tbl, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := render(tbl, *format); err != nil {
			return err
		}
		if *plots {
			if err := tbl.RenderFigures(os.Stdout); err != nil {
				return err
			}
		}
		if *format == "text" {
			fmt.Printf("(%s took %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}

// render writes one table in the selected format.
func render(tbl *exp.Table, format string) error {
	switch format {
	case "text":
		return tbl.Render(os.Stdout)
	case "csv":
		return tbl.RenderCSV(os.Stdout)
	case "markdown":
		return tbl.RenderMarkdown(os.Stdout)
	case "json":
		return tbl.RenderJSON(os.Stdout)
	default:
		return fmt.Errorf("unknown format %q (want text, csv, markdown or json)", format)
	}
}
