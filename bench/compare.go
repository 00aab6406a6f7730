package main

import (
	"fmt"
	"io"
	"slices"
)

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []workload  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

// Verdicts of one metric on one workload, baseline A against change B.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict judges B against A by def's bound: regressed when B's median
// is worse than A's by more than the bound; unresolved when either
// side's run-to-run spread exceeds the bound and the sides' runs
// interleave, so the data cannot tell; ok otherwise.
func verdict(def metricDef, a, b []float64) string {
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma
	if def.Better == "higher" {
		worse = (ma - mb) / ma
	}
	interleave := slices.Min(b) <= slices.Max(a) && slices.Min(a) <= slices.Max(b)
	if max(spread(a), spread(b)) > def.Bound && interleave {
		return verdictUnresolved
	}
	if worse > def.Bound {
		return verdictRegressed
	}
	return verdictOK
}

// compareCmd compares two results files metric by metric and workload
// by workload, with the bounds of BENCHMARK.json in the working
// directory, and flags digest changes and rising failure rates. It
// exits 1 on a regression, a changed digest or more failures.
func compareCmd(aPath, bPath string, stdout, stderr io.Writer) int {
	var a, b suiteFile
	for _, f := range []struct {
		path string
		into *suiteFile
	}{{aPath, &a}, {bPath, &b}} {
		if err := readJSON(f.path, f.into); err != nil {
			fmt.Fprintln(stderr, "bench compare:", err)
			return 2
		}
	}
	defs := endToEnd
	var bf benchmarkFile
	if err := readJSON("BENCHMARK.json", &bf); err == nil && len(bf.EndToEnd) > 0 {
		defs = bf.EndToEnd
	} else {
		fmt.Fprintf(stderr, "bench compare: using built-in bounds (BENCHMARK.json: %v)\n", err)
	}
	fmt.Fprintf(stdout, "A: %s (dirty %v), seed %d, %d runs\nB: %s (dirty %v), seed %d, %d runs\n",
		a.Provenance.Commit, a.Provenance.Dirty, a.Provenance.Seed, a.Provenance.Reps,
		b.Provenance.Commit, b.Provenance.Dirty, b.Provenance.Seed, b.Provenance.Reps)
	bad := false
	for _, wl := range workloads {
		wa, okA := a.Workloads[wl.Name]
		wb, okB := b.Workloads[wl.Name]
		if !okA || !okB {
			continue
		}
		fmt.Fprintf(stdout, "\n%s\n  %-16s %-36s %-36s %6s  %s\n", wl.Name, "metric", "A q1 / median / q3", "B q1 / median / q3", "bound", "verdict")
		for _, d := range defs {
			xa, xb := metricValues(wa.Runs, d.Name), metricValues(wb.Runs, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := verdict(d, xa, xb)
			bad = bad || v == verdictRegressed
			fmt.Fprintf(stdout, "  %-16s %-36s %-36s %5.0f%%  %s\n", d.Name, quartileText(xa), quartileText(xb), 100*d.Bound, v)
		}
		if wb.FailFrac > wa.FailFrac {
			fmt.Fprintf(stdout, "  fail_frac rose: %g -> %g\n", wa.FailFrac, wb.FailFrac)
			bad = true
		}
		if a.Provenance.Seed != b.Provenance.Seed || len(wa.Runs) == 0 || len(wb.Runs) == 0 {
			fmt.Fprintln(stdout, "  digests not compared (different seeds or no runs)")
			continue
		}
		da, db := wa.Runs[0].Digests, wb.Runs[0].Digests
		for _, k := range sortedKeys(da) {
			if db[k] != da[k] {
				fmt.Fprintf(stdout, "  digest %s changed: %.12s -> %.12s\n", k, da[k], db[k])
				bad = true
			}
		}
	}
	if bad {
		return 1
	}
	return 0
}

// quartileText renders Python-style quartiles of xs.
func quartileText(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g / %.4g / %.4g", q1, q2, q3)
}
