// Command bench is the repository's benchmark. One invocation runs one
// named workload — a cold 1M-subscriber campaign, a warm four-scenario
// sweep, or queries from two clients against a campaignd subprocess —
// checks that every result is correct,
// and prints the metrics as its last line of output, one JSON object:
//
//	bench --workload campaign-1m --seed 1 --seconds 20 --trace 0
//
// --trace 1 prints the per-layer metrics instead and writes the run's
// spans as JSONL. Without --workload, bench runs every workload -reps
// times plus once traced, each in a fresh child process, and writes one
// results file; "bench compare A.json B.json" compares two such files
// against the bounds in BENCHMARK.json. bench/run.sh builds bench and
// campaignd and is the command BENCHMARK.json names; README.md holds
// the workloads, the metrics and the expected magnitudes.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	// defaultSeconds is how long one run measures (BENCHMARK.json's
	// run_seconds).
	defaultSeconds = 20
	// runDeadline bounds one run, set-up included, below the 180 s a run
	// may take.
	runDeadline = 170 * time.Second
	// resultsDir holds result files and traces; .gitignore names it.
	resultsDir = ".bench_build/results"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*runCtx, *result) error
}

// workloads are the benchmark's workloads, as BENCHMARK.json lists them.
var workloads = []workload{
	{
		Name: "campaign-1m",
		Why:  "cold engine, 1M subscribers, baseline: crack-, feed- and encrypt-heavy, the only workload that pays the harvest",
		run: inproc{size: 1_000_000, setupReps: 5, cold: true,
			scenarios: []string{"baseline"}}.run,
	},
	{
		Name: "sweep-4x250k",
		Why:  "warm engine, four fortification scenarios two at a time: read-only leak DB, two radio signatures share rigs and shard budget",
		run: inproc{size: 250_000, sweepParallel: 2, setupReps: 3, warm: true,
			scenarios: []string{"baseline", "fortified", "a53-mix", "budget-4of16"}}.run,
	},
	{
		Name: "serve-mixed",
		Why:  "campaignd, two clients sending mixed queries back to back: HTTP, JSON rendering and overlapping runs sharing the shard budget; no harvest",
		run:  runServe,
	},
}

// runCtx is what a workload's run needs from the command line.
type runCtx struct {
	ctx       context.Context
	workload  string
	seed      int64
	seconds   time.Duration
	tr        *tracer // nil for untraced runs
	campaignd string
}

// result is one run's record, written as its result file. Metrics are
// the end-to-end metrics (measured with tracing on in a traced run, to
// report the tracing overhead); LayerMetrics only a traced run fills.
type result struct {
	Provenance   provenance           `json:"provenance"`
	Workload     string               `json:"workload"`
	Traced       bool                 `json:"traced"`
	Attempted    int                  `json:"attempted"`
	Failed       int                  `json:"failed"`
	Failures     []string             `json:"failures,omitempty"`
	Metrics      map[string]float64   `json:"metrics"`
	LayerMetrics map[string]float64   `json:"layerMetrics,omitempty"`
	Raw          map[string][]float64 `json:"raw"`
	Digests      map[string]string    `json:"digests"`
}

func newResult(name string, prov provenance, traced bool) *result {
	r := &result{
		Provenance: prov, Workload: name, Traced: traced,
		Metrics: make(map[string]float64), Raw: make(map[string][]float64),
		Digests: make(map[string]string),
	}
	if traced {
		r.LayerMetrics = make(map[string]float64)
	}
	return r
}

// failf notes why an operation failed (the first few reasons are kept;
// Failed counts them all).
func (r *result) failf(format string, args ...any) {
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// record stores the digest of one answer under key. Equal inputs must
// give equal answers, so a digest that differs from an earlier one
// under the same key is reported false.
func (r *result) record(key, digest string) bool {
	if old, ok := r.Digests[key]; ok && old != digest {
		r.failf("%s: digest %.12s differs from %.12s", key, digest, old)
		return false
	}
	r.Digests[key] = digest
	return true
}

// setRaw stores a run's raw samples, failed operations as the largest
// float64.
func (r *result) setRaw(name string, xs []float64) {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = finite(x)
	}
	r.Raw[name] = out
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its exit code returned.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name       = fs.String("workload", "", "run this workload once and print its metrics (empty = every workload, -reps times)")
		seed       = fs.Int64("seed", 1, "seed the workload inputs are made from")
		seconds    = fs.Int("seconds", defaultSeconds, "how long one run measures")
		trace      = fs.Int("trace", 0, "1 = traced run: print per-layer metrics and write the spans")
		campaignd  = fs.String("campaignd", ".bench_build/campaignd", "campaignd binary the serve workloads start")
		resultPath = fs.String("result", "", "result file of a single run (default "+resultsDir+"/<workload>-seed<N>-trace<T>.json)")
		reps       = fs.Int("reps", 5, "untraced runs per workload when running every workload (one traced run is added)")
		out        = fs.String("out", "", "results file when running every workload (default "+resultsDir+"/suite-seed<N>.json)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: bench --workload NAME --seed N --seconds S --trace 0|1\n"+
			"       bench [-seed N] [-reps R] [-out FILE]\n"+
			"       bench compare A.json B.json\n\nworkloads:\n")
		for _, w := range workloads {
			fmt.Fprintf(stderr, "  %-13s %s\n", w.Name, w.Why)
		}
		fmt.Fprintln(stderr, "\nflags:")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		if fs.Arg(0) == "compare" && fs.NArg() == 3 {
			return compareCmd(fs.Arg(1), fs.Arg(2), stdout, stderr)
		}
		fs.Usage()
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	if *name == "" {
		return runSuite(*seed, *seconds, *reps, *campaignd, *out, stdout, stderr)
	}
	for _, w := range workloads {
		if w.Name == *name {
			return runOne(w, *seed, *seconds, *trace == 1, *campaignd, *resultPath, stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
	return 2
}

// runOne runs one workload once, writes its result file (and, traced,
// its spans) and prints the metrics line. A run that fails to complete
// prints no metrics; one whose operations failed prints them with
// "correct": false. Both exit non-zero.
func runOne(w workload, seed int64, seconds int, traced bool, campaignd, path string, stdout, stderr io.Writer) int {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	rc := &runCtx{ctx: ctx, workload: w.Name, seed: seed, seconds: time.Duration(seconds) * time.Second, campaignd: campaignd}
	if traced {
		rc.tr = newTracer()
	}
	res := newResult(w.Name, newProvenance(seed, 1, seconds), traced)
	if err := w.run(rc, res); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
		return 1
	}
	defs, got := endToEnd, res.Metrics
	if traced {
		defs, got = perLayer, res.LayerMetrics
	}
	line := metricsLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			fmt.Fprintf(stderr, "bench: %s: metric %s was not measured\n", w.Name, d.Name)
			return 1
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if path == "" {
		path = filepath.Join(resultsDir, fmt.Sprintf("%s-seed%d-trace%d.json", w.Name, seed, b2i(traced)))
	}
	if err := writeJSON(path, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if traced {
		tpath := filepath.Join(resultsDir, fmt.Sprintf("%s-seed%d.trace.jsonl", w.Name, seed))
		if err := rc.tr.writeJSONL(tpath); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	describe(stderr, res, defs, got)
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// metricsLine is the last line a run prints.
type metricsLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// describe prints a run's metrics, digests and failures for a reader.
func describe(w io.Writer, res *result, defs []metricDef, got map[string]float64) {
	fmt.Fprintf(w, "%s seed %d: %d operations, %d failed\n", res.Workload, res.Provenance.Seed, res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-32s %16.6g %s\n", d.Name, got[d.Name], d.Unit)
	}
	for _, k := range sortedKeys(res.Digests) {
		fmt.Fprintf(w, "  digest %-27s %s\n", k, res.Digests[k])
	}
	for _, f := range res.Failures {
		fmt.Fprintln(w, "  FAIL", f)
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// writeJSON writes v as indented JSON, creating the directory.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// readJSON decodes the JSON file at path into v.
func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("decode %s: %w", path, err)
	}
	return nil
}

// provenance identifies what produced a result file.
type provenance struct {
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	GoVersion  string `json:"goVersion"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpuModel"`
	Seed       int64  `json:"seed"`
	Reps       int    `json:"reps"`
	Seconds    int    `json:"seconds"`
	Started    string `json:"started"`
}

func newProvenance(seed int64, reps, seconds int) provenance {
	commit, dirty := gitCommit()
	return provenance{
		Commit: commit, Dirty: dirty, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: cpuModel(),
		Seed: seed, Reps: reps, Seconds: seconds, Started: time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit reports the checked-out commit and whether the tree has
// changes, or "unknown" outside a git checkout.
func gitCommit() (string, bool) {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown", false
	}
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, err := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(head)), err != nil || len(bytes.TrimSpace(status)) > 0
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
