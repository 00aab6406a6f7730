package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// suiteFile is the results file of a run over every workload: each
// workload's untraced runs and its traced run, in full, with the
// summary statistics compare reads.
type suiteFile struct {
	Provenance provenance                `json:"provenance"`
	Workloads  map[string]*suiteWorkload `json:"workloads"`
}

// suiteWorkload is one workload's runs and what they add up to.
type suiteWorkload struct {
	Runs   []*result `json:"runs"`
	Traced *result   `json:"traced,omitempty"`
	// Median and Spread (interquartile distance over median) of each
	// end-to-end metric over the untraced runs.
	Median map[string]float64 `json:"median"`
	Spread map[string]float64 `json:"spread"`
	// TracingOverhead is, per end-to-end metric, the traced run's value
	// minus the untraced median, as a share of that median.
	TracingOverhead map[string]float64 `json:"tracingOverhead,omitempty"`
	// DigestsStable holds when every run answered every input with the
	// same digest.
	DigestsStable bool    `json:"digestsStable"`
	Attempted     int     `json:"attempted"`
	Failed        int     `json:"failed"`
	FailFrac      float64 `json:"failFrac"`
}

// runSuite runs every workload reps times untraced and once traced,
// each run in a fresh child process, and writes the results file. It
// exits non-zero if any run failed, digests differ between runs, or
// tracing moved an end-to-end metric by more than its bound.
func runSuite(seed int64, seconds, reps int, campaignd, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if out == "" {
		out = filepath.Join(resultsDir, fmt.Sprintf("suite-seed%d.json", seed))
	}
	sf := suiteFile{Provenance: newProvenance(seed, reps, seconds), Workloads: make(map[string]*suiteWorkload)}
	ok := true
	for _, w := range workloads {
		sw := &suiteWorkload{}
		for r := 0; r <= reps; r++ {
			traced := r == reps
			path := filepath.Join(resultsDir, "suite", fmt.Sprintf("%s-%d.json", w.Name, r))
			res, err := runChild(exe, campaignd, w.Name, seed, seconds, traced, path, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s run %d: %v\n", w.Name, r, err)
				ok = false
			}
			if res == nil {
				continue
			}
			if traced {
				sw.Traced = res
			} else {
				sw.Runs = append(sw.Runs, res)
			}
		}
		summarize(sw)
		ok = ok && sw.Failed == 0 && sw.DigestsStable && len(sw.Runs) == reps && sw.Traced != nil
		sf.Workloads[w.Name] = sw
	}
	if err := writeJSON(out, sf); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printSuite(stdout, &sf)
	fmt.Fprintf(stdout, "results: %s\n", out)
	// setup_s is left out, as from the spread check: set-up is short and
	// spreads the widest, so one traced sample says little about tracing.
	for _, sw := range sf.Workloads {
		for name, o := range sw.TracingOverhead {
			if d, _ := defByName(endToEnd, name); name != "setup_s" && math.Abs(o) > d.Bound {
				ok = false
			}
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// runChild runs one workload in a child process and reads back its
// result file. A run whose operations failed still returns its result,
// with an error.
func runChild(exe, campaignd, name string, seed int64, seconds int, traced bool, path string, stderr io.Writer) (*result, error) {
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	cmd := exec.Command(exe, "-campaignd", campaignd, "--workload", name,
		"--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(seconds),
		"--trace", strconv.Itoa(b2i(traced)), "--result", path)
	cmd.Stdout = io.Discard // the metrics line; the result file holds more
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var res result
	if err := readJSON(path, &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, err
	}
	return &res, runErr
}

// summarize computes a workload's statistics from its runs.
func summarize(sw *suiteWorkload) {
	sw.Median = make(map[string]float64)
	sw.Spread = make(map[string]float64)
	for _, d := range endToEnd {
		xs := metricValues(sw.Runs, d.Name)
		if len(xs) == 0 {
			continue
		}
		sw.Median[d.Name] = median(xs)
		sw.Spread[d.Name] = spread(xs)
		if sw.Traced != nil && sw.Median[d.Name] != 0 {
			if sw.TracingOverhead == nil {
				sw.TracingOverhead = make(map[string]float64)
			}
			sw.TracingOverhead[d.Name] = (sw.Traced.Metrics[d.Name] - sw.Median[d.Name]) / sw.Median[d.Name]
		}
	}
	all := append([]*result(nil), sw.Runs...)
	if sw.Traced != nil {
		all = append(all, sw.Traced)
	}
	sw.DigestsStable = true
	for _, r := range all {
		sw.Attempted += r.Attempted
		sw.Failed += r.Failed
		for k, d := range r.Digests {
			if all[0].Digests[k] != d {
				sw.DigestsStable = false
			}
		}
	}
	sw.FailFrac = ratio(float64(sw.Failed), float64(sw.Attempted))
}

// metricValues collects one end-to-end metric over runs.
func metricValues(runs []*result, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

// printSuite prints each workload's medians, spreads and tracing
// overheads, then its digests.
func printSuite(w io.Writer, sf *suiteFile) {
	p := sf.Provenance
	fmt.Fprintf(w, "commit %s (dirty %v), %s, GOMAXPROCS %d of %d CPUs (%s), seed %d, %d runs + 1 traced, %d s each\n",
		p.Commit, p.Dirty, p.GoVersion, p.GOMAXPROCS, p.NumCPU, p.CPUModel, p.Seed, p.Reps, p.Seconds)
	for _, wl := range workloads {
		sw := sf.Workloads[wl.Name]
		fmt.Fprintf(w, "\n%s: %d operations, fail_frac %g, digests stable %v\n", wl.Name, sw.Attempted, sw.FailFrac, sw.DigestsStable)
		fmt.Fprintf(w, "  %-16s %14s %8s %8s %10s\n", "metric", "median", "spread", "bound", "traced Δ")
		for _, d := range endToEnd {
			fmt.Fprintf(w, "  %-16s %14.6g %7.2f%% %7.0f%% %9.2f%%  %s\n", d.Name, sw.Median[d.Name],
				100*sw.Spread[d.Name], 100*d.Bound, 100*sw.TracingOverhead[d.Name], d.Unit)
		}
		if len(sw.Runs) > 0 {
			for _, k := range sortedKeys(sw.Runs[0].Digests) {
				fmt.Fprintf(w, "  digest %-27s %s\n", k, sw.Runs[0].Digests[k])
			}
		}
	}
}
