package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// Verdicts of compare, one per workload and end-to-end metric.
const (
	verdictWithin     = "within bound"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
)

// loadRuns reads dir/results.jsonl and returns, per workload and end-to-end
// metric, the values of its full-size untraced runs, plus the failed share
// of each such run.
func loadRuns(dir string) (values map[string]map[string][]float64, failed map[string][]float64, err error) {
	f, err := os.Open(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	values = map[string]map[string][]float64{}
	failed = map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for n := 1; sc.Scan(); n++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, nil, fmt.Errorf("%s line %d: %w", f.Name(), n, err)
		}
		if rec.Traced || rec.Smoke {
			continue
		}
		if values[rec.Workload] == nil {
			values[rec.Workload] = map[string][]float64{}
		}
		for _, d := range endToEnd {
			values[rec.Workload][d.Name] = append(values[rec.Workload][d.Name], rec.Metrics[d.Name])
		}
		failed[rec.Workload] = append(failed[rec.Workload], float64(rec.Failed)/float64(max(rec.Attempted, 1)))
	}
	return values, failed, sc.Err()
}

// verdict judges side B against baseline A for one metric: unresolved when
// either side's own run-to-run spread (interquartile range over median) is
// wider than the bound, so a difference of that size could not be told from
// noise; regressed when B's median is worse than A's by more than the bound.
func verdict(d metricDef, a, b []float64) string {
	if spread(a) > d.Bound || spread(b) > d.Bound {
		return verdictUnresolved
	}
	ma, mb := median(a), median(b)
	worse := mb - ma
	if d.Better == "higher" {
		worse = ma - mb
	}
	if ma != 0 && worse/ma > d.Bound {
		return verdictRegressed
	}
	return verdictWithin
}

// compareDirs prints, one row per workload and end-to-end metric, both
// sides' median and quartiles and the verdict. It reports false when any
// row regressed or is unresolved, or B failed more than A.
func compareDirs(out io.Writer, dirA, dirB string) (bool, error) {
	a, failedA, err := loadRuns(dirA)
	if err != nil {
		return false, err
	}
	b, failedB, err := loadRuns(dirB)
	if err != nil {
		return false, err
	}
	ok := true
	side := func(xs []float64) string {
		q1, q3 := quartiles(xs)
		return fmt.Sprintf("%12.4f [%12.4f %12.4f] n=%-2d", median(xs), q1, q3, len(xs))
	}
	fmt.Fprintf(out, "%-16s %-18s %-6s %-45s %-45s %7s %6s  %s\n",
		"workload", "metric", "unit", "A: median [q1 q3]", "B: median [q1 q3]", "B vs A", "bound", "verdict")
	for _, w := range workloads {
		if len(a[w.Name]) == 0 || len(b[w.Name]) == 0 {
			return false, fmt.Errorf("workload %s: no full untraced runs on both sides", w.Name)
		}
		for _, d := range endToEnd {
			xa, xb := a[w.Name][d.Name], b[w.Name][d.Name]
			v := verdict(d, xa, xb)
			ok = ok && v == verdictWithin
			change := 0.0
			if m := median(xa); m != 0 {
				change = (median(xb) - m) / m * 100
			}
			fmt.Fprintf(out, "%-16s %-18s %-6s %s %s %+6.1f%% %5.0f%%  %s\n",
				w.Name, d.Name, d.Unit, side(xa), side(xb), change, d.Bound*100, v)
		}
		fa, fb := slices.Max(failedA[w.Name]), slices.Max(failedB[w.Name])
		v := verdictWithin
		if fb > fa {
			v, ok = verdictRegressed, false
		}
		fmt.Fprintf(out, "%-16s %-18s %-6s %45.6f %45.6f %7s %6s  %s\n", w.Name, "failed_share", "ratio", fa, fb, "", "any", v)
	}
	return ok, nil
}
