package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json a comparison needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// compareFiles compares two sets of report files, given as
// "A1.json A2.json -- B1.json B2.json". For every (workload, metric)
// both sides report, it prints each side's median and quartiles, the
// change of B's median against A's, and a verdict:
//
//   - better or worse: B's median moved by more than the bound in that
//     direction;
//   - unchanged: it moved by no more than the bound;
//   - unresolved: an end-to-end metric whose run-to-run spread (quartile
//     distance over median) exceeds its bound on either side, unless
//     every B run beats every A run, or the reverse.
//
// Per-layer metrics have no bound in BENCHMARK.json; their bound is the
// larger of the two sides' spreads, so an exact counter that moves at
// all is better or worse.
func compareFiles(w io.Writer, benchPath string, args []string) error {
	var a, b []string
	side := &a
	for _, arg := range args {
		if arg == "--" && side == &a {
			side = &b
			continue
		}
		*side = append(*side, arg)
	}
	if len(a) == 0 || len(b) == 0 {
		return errors.New("-compare needs report files on both sides of --")
	}
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	va, err := loadValues(a)
	if err != nil {
		return err
	}
	vb, err := loadValues(b)
	if err != nil {
		return err
	}

	type row struct {
		name, unit, better string
		bound              float64
		hasBound           bool
	}
	var rows []row
	for _, m := range spec.EndToEnd {
		rows = append(rows, row{m.Name, m.Unit, m.Better, m.Bound, true})
	}
	for _, m := range spec.PerLayer {
		rows = append(rows, row{m.Name, m.Unit, m.Better, 0, false})
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tchange\tbound\tverdict")
	for _, wk := range workloads {
		wl := wk.name
		for _, r := range rows {
			xa, xb := va[wl][r.name], vb[wl][r.name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := judge(xa, xb, r.better == "higher", r.bound, r.hasBound)
			bound := "-"
			if r.hasBound {
				bound = fmt.Sprintf("%.1f%%", 100*r.bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%s\t%s\n", wl, r.name, r.unit,
				describe(xa), describe(xb), 100*v.change, bound, v.verdict)
		}
	}
	return tw.Flush()
}

// loadValues collects every run's metric values from report files,
// by workload and metric.
func loadValues(paths []string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f reportFile
		if err := json.Unmarshal(raw, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range f.Runs {
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], v.Value)
			}
		}
	}
	return out, nil
}

type judgement struct {
	change  float64 // (median B - median A) / |median A|
	verdict string
}

// judge compares B's runs against A's for a metric where higher or
// lower is better.
func judge(a, b []float64, higher bool, bound float64, hasBound bool) judgement {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	sign := -1.0
	if higher {
		sign = 1
	}
	var j judgement
	switch {
	case mb == ma:
	case ma == 0:
		j.change = math.Copysign(math.Inf(1), mb)
	default:
		j.change = (mb - ma) / math.Abs(ma)
	}
	gain := sign * j.change
	spreadA, spreadB := spread(q1a, ma, q3a), spread(q1b, mb, q3b)
	allBetter, allWorse := true, true
	for _, x := range a {
		for _, y := range b {
			allBetter = allBetter && sign*(y-x) > 0
			allWorse = allWorse && sign*(y-x) < 0
		}
	}
	limit := bound
	if !hasBound {
		limit = max(spreadA, spreadB)
	}
	switch {
	case hasBound && (spreadA > bound || spreadB > bound):
		j.verdict = "unresolved"
		if allBetter {
			j.verdict = "better"
		} else if allWorse {
			j.verdict = "worse"
		}
	case gain > limit:
		j.verdict = "better"
	case gain < -limit:
		j.verdict = "worse"
	default:
		j.verdict = "unchanged"
	}
	return j
}

// spread is the quartile distance as a share of the median.
func spread(q1, med, q3 float64) float64 {
	if q3 == q1 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

func describe(xs []float64) string {
	q1, m, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", m, q1, q3, len(xs))
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) and statistics.median
// compute them (the "exclusive" method), which is how the benchmark's
// acceptance measures spread.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), median(s), q(3)
}
