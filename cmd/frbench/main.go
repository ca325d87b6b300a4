// Command frbench is faultroute's benchmark. Four workloads measure the
// engine, the experiment suite, the faultrouted service and the dispatch
// pool end to end, each in a process of its own; a traced run measures
// every layer on the same traffic. README.md says why each workload
// exists and which end-to-end metric each layer metric should move.
//
// From the repository root:
//
//	bash cmd/frbench/run.sh -seed 1 -out run.json
//	bash cmd/frbench/run.sh -seed 1 -trace trace.jsonl -out traced.json
//	bash cmd/frbench/run.sh --workload serve-zipf --seed 3 --seconds 20 --trace 0
//	bash cmd/frbench/run.sh -compare base*.json -- change*.json
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchmarkFile declares the metrics, their directions and bounds; it is
// read from the directory frbench runs in.
const benchmarkFile = "BENCHMARK.json"

// reportPrefix marks the stdout line carrying a run's full report, which
// the parent process reads back from each workload's child.
const reportPrefix = "frbench-report "

// runTimeout caps one workload process, set-up and checks included.
const runTimeout = 170 * time.Second

// errIncorrect reports a run whose outputs failed a check.
var errIncorrect = errors.New("outputs failed their checks")

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "frbench:", err)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("frbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run this one workload in this process (default: all four, each in a child process)")
		seed    = fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 20, "run length: each workload runs as many ops as it completes in this long on a 2-CPU machine at the commit that defined the benchmark (at least 1,000)")
		trace   = fs.String("trace", "0", `"0": untraced; "1": traced; a file name: traced, spans appended to that file as JSON lines`)
		out     = fs.String("out", "", "write the report (environment block and every metric of every run) to this file")
		compare = fs.Bool("compare", false, "compare report files instead of running: -compare A*.json -- B*.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		return compareFiles(stdout, benchmarkFile, fs.Args())
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	if *name != "" {
		return runOne(ctx, stdout, *name, *seed, *seconds, *trace, *out)
	}
	return runAll(ctx, stdout, *seed, *seconds, *trace, *out)
}

// parseTrace reads the -trace flag: whether to trace, and where to
// write the spans ("" for nowhere).
func parseTrace(arg string) (traced bool, path string) {
	switch arg {
	case "", "0":
		return false, ""
	case "1":
		return true, ""
	default:
		return true, arg
	}
}

// runOne runs one workload in this process. Its last stdout line is the
// run's result object.
func runOne(ctx context.Context, stdout io.Writer, name string, seed uint64, seconds float64, trace, out string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	traced, path := parseTrace(trace)
	var spans func(*tracer, *report) error
	if path != "" {
		spans = func(tr *tracer, rep *report) error {
			f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
			if err != nil {
				return err
			}
			if err := tr.write(f, rep); err != nil {
				f.Close()
				return fmt.Errorf("writing spans: %w", err)
			}
			return f.Close()
		}
	}
	rep, err := runWorkload(ctx, w, cliConfig(w, seed, seconds), traced, spans)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	printReport(stdout, rep)
	if out != "" {
		if err := writeReportFile(out, newEnvironment(seed, seconds, []*report{rep}), []*report{rep}); err != nil {
			return err
		}
	}
	full, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s%s\n%s\n", reportPrefix, full, line)
	if !rep.Correct {
		return errIncorrect
	}
	return nil
}

// runAll runs every workload untraced, then traced when asked, each run
// in a child process of its own so heap and GC state never leak between
// workloads.
func runAll(ctx context.Context, stdout io.Writer, seed uint64, seconds float64, trace, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	traced, path := parseTrace(trace)
	if path != "" {
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			return err
		}
	}
	modes := []string{"0"}
	if traced {
		modes = append(modes, trace)
	}
	var (
		reps     []*report
		firstErr error
	)
	for _, w := range workloads {
		for _, mode := range modes {
			rep, err := runChild(ctx, exe, w.name, seed, seconds, mode)
			if err == nil && !rep.Correct {
				err = fmt.Errorf("%s: %w", w.name, errIncorrect)
			}
			if rep != nil {
				printReport(stdout, rep)
				reps = append(reps, rep)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "frbench:", err)
				if firstErr == nil {
					firstErr = err
				}
			}
		}
	}
	if out != "" {
		if err := writeReportFile(out, newEnvironment(seed, seconds, reps), reps); err != nil {
			return err
		}
	}
	return firstErr
}

// runChild runs one workload in a child process and reads its report.
func runChild(ctx context.Context, exe, name string, seed uint64, seconds float64, trace string) (*report, error) {
	cmd := exec.CommandContext(ctx, exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), reportPrefix); ok {
			var rep report
			if err := json.Unmarshal([]byte(line), &rep); err != nil {
				return nil, fmt.Errorf("%s: reading report: %w", name, err)
			}
			return &rep, nil
		}
	}
	if runErr == nil {
		runErr = errors.New("no report")
	}
	return nil, fmt.Errorf("%s: %w", name, runErr)
}

// printReport writes a run's metrics, one per line, with their units.
func printReport(w io.Writer, rep *report) {
	mode := "untraced"
	if rep.Traced {
		mode = "traced"
	}
	status := "correct"
	if !rep.Correct {
		status = "INCORRECT"
	}
	fmt.Fprintf(w, "%s %s seed=%d: %d ops, %d failed, %s, digest %.16s\n",
		rep.Workload, mode, rep.Seed, rep.Attempted, rep.Failed, status, rep.Digest)
	for _, e := range rep.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	declared := endToEnd
	if rep.Traced {
		declared = perLayer
	}
	for _, m := range declared {
		if v, ok := rep.Metrics[m.name]; ok {
			fmt.Fprintf(w, "  %-42s %14.6g %s\n", m.name, v.Value, v.Unit)
		}
	}
	names := make([]string, 0, len(rep.Detail))
	for n := range rep.Detail {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := rep.Detail[n]
		fmt.Fprintf(w, "  %-42s %14.6g %s  (detail)\n", n, v.Value, v.Unit)
	}
}

// environment is the header of every report file.
type environment struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Commit     string  `json:"commit"`
	GOGC       string  `json:"gogc"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	// Ops is each run's op count, keyed "<workload>" or "<workload>
	// traced".
	Ops map[string]int `json:"ops"`
}

func newEnvironment(seed uint64, seconds float64, reps []*report) environment {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	env := environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Commit: commit(), GOGC: gogc,
		Seed: seed, Seconds: seconds, Ops: map[string]int{},
	}
	for _, r := range reps {
		key := r.Workload
		if r.Traced {
			key += " traced"
		}
		env.Ops[key] = r.Attempted
	}
	return env
}

// commit names the source revision: the build's VCS stamp, else the
// HEAD of a git checkout in the current directory.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	return "unknown"
}

// reportFile is what -out writes and -compare reads.
type reportFile struct {
	Env  environment `json:"env"`
	Runs []*report   `json:"runs"`
}

func writeReportFile(path string, env environment, reps []*report) error {
	b, err := json.MarshalIndent(reportFile{Env: env, Runs: reps}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
