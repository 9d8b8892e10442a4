// Command perfbench is the repository's benchmark. It builds the system's
// inputs from a seed, drives the system in-process through the public
// functions of its layers (dataset, influence, coverage, market, catalog,
// core, solvecache via the server, server), checks that every output is
// correct, and prints one JSON result as its last line of standard output.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads:
//
//	paper-scale  stream-build a scale-tier NYC universe, then closed-loop
//	             G-Order/G-Global batches on markets where they disagree
//	solve-batch  closed-loop ALS/BLS batches at 2 workers on the fleet
//	serve-mixed  open-loop Poisson trace of all four algorithms against an
//	             in-process daemon with the solve cache on; its traced run
//	             also replays advertiser PATCHes beside warm-started BLS
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer ledger, and the spans the benchmark recorded
// around its calls are written to --out. run.sh builds and runs it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"solve_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"goodput_rps", "req/s"},
	{"ok_frac", "ratio"},
	{"regret_ratio", "ratio"},
}

// perLayer are the metrics of a traced run. A layer that does no work on a
// workload reports 0 there.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"dataset.stream_s", "s"},
		{"dataset.generate_s", "s"},
		{"influence.coverage_s", "s"},
		{"coverage.compress_s", "s"},
		{"coverage.dense_entries", "count"},
		{"coverage.corridor_entries", "count"},
		{"coverage.compression_ratio", "ratio"},
		{"coverage.gain_ns_per_entry", "ns"},
		{"coverage.loss_ns_per_entry", "ns"},
		{"coverage.swap_ns_per_entry", "ns"},
		{"coverage.add_ns_per_entry", "ns"},
		{"market.build_s", "s"},
		{"catalog.build_s", "s"},
		{"catalog.patch_ms", "ms"},
	}
	for _, alg := range algorithms {
		m = append(m,
			metricDef{"core.solve_ms." + alg, "ms"},
			metricDef{"core.evals." + alg, "count"},
			metricDef{"core.ns_per_eval." + alg, "ns"})
	}
	m = append(m,
		metricDef{"core.restart_ms", "ms"},
		metricDef{"core.pool_speedup", "ratio"},
		metricDef{"core.celf_hits", "count"},
		metricDef{"core.celf_misses", "count"},
		metricDef{"core.celf_rescans", "count"},
		metricDef{"core.celf_hit_ratio", "ratio"},
		metricDef{"core.truncated_frac", "ratio"},
		metricDef{"core.warm_started_frac", "ratio"},
		metricDef{"core.frozen_advertisers", "count"},
		metricDef{"core.warm_evals_ratio", "ratio"},
		metricDef{"solvecache.hit_ratio", "ratio"},
		metricDef{"solvecache.coalesced_ratio", "ratio"},
		metricDef{"solvecache.invalidations", "count"},
	)
	for _, phase := range serverPhases {
		m = append(m,
			metricDef{"server." + phase + "_ms.p50", "ms"},
			metricDef{"server." + phase + "_ms.p95", "ms"})
	}
	return append(m,
		metricDef{"server.patch_ms.p50", "ms"},
		metricDef{"server.shed_capacity_frac", "ratio"},
		metricDef{"server.shed_deadline_frac", "ratio"},
		metricDef{"server.worker_busy_frac", "ratio"},
		metricDef{"workload.gen_lag_p95_ms", "ms"},
		metricDef{"obs.trace_overhead_frac", "ratio"},
		metricDef{"ledger.setup_accounted_frac", "ratio"},
		metricDef{"ledger.solve_accounted_frac", "ratio"},
		metricDef{"ledger.latency_accounted_frac", "ratio"},
	)
}()

// algorithms are the paper's four solvers in figure order.
var algorithms = []string{"G-Order", "G-Global", "ALS", "BLS"}

// serverPhases are the daemon's request phases, as its span trees name them.
var serverPhases = []string{"admission", "cache_lookup", "queue", "solve", "encode"}

// variants is how many input variants a workload has: the seed selects
// variant seed mod variants, and expected.go records every variant's
// offline outcomes.
const variants = 8

// workloadDef is one named benchmark workload.
type workloadDef struct {
	name      string
	setupReps int
	offline   func(tr *tracer, parent, variant int) (*offlineSetup, error)
	serve     *serveConfig
}

var workloads = []workloadDef{
	{name: "paper-scale", setupReps: 3, offline: setupPaper},
	{name: "solve-batch", setupReps: 9, offline: setupBatch},
	{name: "serve-mixed", setupReps: 9, serve: &serveMixed},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// options are the command-line settings of one run.
type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	out       string
	setupReps int
}

// result collects one run's metrics and correctness verdict.
type result struct {
	opts      options
	metrics   map[string]float64
	attempted int
	failed    int
	errs      []error
	digest    string
}

func newResult(o options) *result { return &result{opts: o, metrics: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.metrics[name] = v }

// fail records a correctness failure; any failure fails the run.
func (r *result) fail(err error) { r.errs = append(r.errs, err) }

// metricJSON is one metric in the printed result.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line renders the result line. Every metric of the run's mode must have
// been measured; a traced run reports 0 for layers the workload never uses.
func (r *result) line() ([]byte, error) {
	defs := endToEnd
	if r.opts.trace {
		defs = perLayer
	}
	out := map[string]metricJSON{}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok && !r.opts.trace {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricJSON{Value: v, Unit: d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{len(r.errs) == 0, r.attempted, r.failed, out})
}

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run executes one benchmark run and returns the exit code.
func run(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measuring time in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 records the per-layer ledger")
	fs.StringVar(&o.out, "out", ".", "directory for the span file of a traced run")
	record := fs.Bool("record", false, "solve every recorded batch, print expected.go and exit")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *record {
		return 0, recordExpected(stdout)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return 2, fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = traceFlag == 1
	if o.seconds <= 0 {
		return 2, errors.New("--seconds must be positive")
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		return 2, err
	}
	o.setupReps = w.setupReps
	fmt.Fprintf(stderr, "perfbench: workload=%s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d\n",
		w.name, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0))

	res, tr, err := runWorkload(o, w)
	if err != nil {
		return 1, err
	}
	if o.trace {
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
		if err := writeSpans(path, tr.spans); err != nil {
			return 1, err
		}
		fmt.Fprintf(stderr, "perfbench: wrote %d spans to %s\n", len(tr.spans), path)
	}
	line, err := res.line()
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stderr, "perfbench: inputs sha256 %s\n", res.digest)
	for _, e := range res.errs {
		fmt.Fprintln(stderr, "perfbench: check failed:", e)
	}
	fmt.Fprintln(stdout, string(line))
	if len(res.errs) > 0 {
		return 1, fmt.Errorf("%d correctness check(s) failed", len(res.errs))
	}
	return 0, nil
}

// runWorkload dispatches to the workload's runner.
func runWorkload(o options, w workloadDef) (*result, *tracer, error) {
	if w.serve != nil {
		return runServe(o, *w.serve)
	}
	return runOffline(o, w)
}
