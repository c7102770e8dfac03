// Command perfbench is the repository's canonical benchmark. It drives the
// liveness system through its public entry points on one of three
// workloads and prints one JSON result line:
//
//	compile  pipeline.Run (construct -> split-edges -> destruct -> regalloc)
//	         over the SPEC2000-calibrated slot-form corpus, 12 procs per
//	         benchmark, one goroutine, no snapshot store.
//	serve    a long-lived engine over the full 4823-proc corpus replaying
//	         the recorded SSA-destruction query streams through
//	         Engine.Oracle from 2 closed-loop clients, with a benign
//	         instruction edit every 64 queries and a CFG edit every 512.
//	restart  16 loopy 512-8192-block functions: a cold start into an empty
//	         snapshot store, then a warm start on a fresh store handle.
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the same workload once untraced and once traced and reports the
// per-layer split, the reconciliation of phase self-times against the
// traced total, and the tracing overhead. See perfbench/README.md for the
// metric definitions.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload compile --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every corpus to a few functions: the smoke test's size.
	tiny bool
	// workDir holds snapshot stores and the written trace.
	workDir string
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a workload's outcome: the operation counts behind
// error_rate, sampled answers checked against a fresh recompute, and the
// metrics of the selected mode.
type report struct {
	attempted, failed int64
	checked, wrong    int64
	metrics           map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// errorRate is failed operations over attempted ones.
func (r *report) errorRate() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

// workloads maps each workload name to its untraced and traced runners.
var workloads = map[string]struct {
	run    func(opts options, r *report) error
	traced func(opts options, r *report) error
}{
	"compile": {runCompile, traceCompile},
	"serve":   {runServe, traceServe},
	"restart": {runRestart, traceRestart},
}

func main() {
	var opts options
	flag.StringVar(&opts.workload, "workload", "", "compile, serve or restart")
	flag.Int64Var(&opts.seed, "seed", 1, "input seed")
	flag.Float64Var(&opts.seconds, "seconds", 25, "measurement time per run")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.Parse()
	opts.trace = *trace == 1
	opts.workDir = filepath.Join(".bench_build", "work")

	res, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run executes one workload and assembles its result line.
func run(opts options) (*result, error) {
	w, ok := workloads[opts.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opts.workload)
	}
	if err := os.MkdirAll(opts.workDir, 0o777); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opts.workDir, opts.workload+"-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	opts.workDir = dir

	r := newReport()
	runner := w.run
	if opts.trace {
		runner = w.traced
	}
	if err := runner(opts, r); err != nil {
		return nil, err
	}
	if opts.trace {
		r.set("check.wrong_answers", "count", float64(r.wrong))
		r.set("check.error_rate", "ratio", r.errorRate())
	}
	printSummary(opts, r)
	return &result{
		Correct:   r.wrong == 0 && r.checked > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}, nil
}

// printSummary writes the metrics one per line ahead of the JSON line.
func printSummary(opts options, r *report) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d trace %v: %d attempted, %d failed, %d/%d sampled answers wrong\n",
		opts.workload, opts.seed, opts.trace, r.attempted, r.failed, r.wrong, r.checked)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("  %-32s %16.6g %s\n", n, m.Value, m.Unit)
	}
}

// A run repeats its set-up at least setupRuns times and until setupTime
// has passed, and reports the median set-up time; the last set-up's state
// is the one measured.
const (
	setupRuns = 3
	setupTime = 500 * time.Millisecond
)

// setup times build repeatedly and returns the last result with the
// median set-up time in seconds. Each earlier result is dropped before the
// next build, so at most one is alive at once.
func setup[T any](build func() (T, error)) (T, float64, error) {
	var out T
	var times []float64
	begin := time.Now()
	for len(times) < setupRuns || time.Since(begin) < setupTime {
		var zero T
		out = zero
		runtime.GC()
		start := time.Now()
		v, err := build()
		if err != nil {
			return out, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		out = v
	}
	return out, median(times), nil
}

// writeTrace stores the traced run's spans next to the work directory's
// parent, where they outlive the run's scratch directory.
func writeTrace(opts options, t *tracer) error {
	path := filepath.Join(filepath.Dir(opts.workDir), fmt.Sprintf("trace-%s-seed%d.json", opts.workload, opts.seed))
	buf, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o666)
}
