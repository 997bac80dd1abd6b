// Command perfbench is the repository's benchmark. It builds its inputs
// in-process from a seed, drives the aigd serving stack
// (serve.Server.Handler) in-process with a single closed-loop client
// through one of three workloads, checks every response, and prints one
// JSON line with the run's metrics: the end-to-end metrics on an untraced
// run (-trace 0), the per-layer breakdown on a traced run (-trace 1).
//
//	bash perfbench/run.sh --workload full-doc --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports
// every one of them, each measured on that workload's own traffic.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"ttfb_p50_ms", "ms"},
	{"cold_p50_ms", "ms"},
	{"mb_s", "MB/s"},
	{"alloc_mb_per_req", "MB"},
	{"heap_retained_mb", "MB"},
}

// perLayer are the metrics of a traced run. A layer the workload does
// not exercise reports 0.
var perLayer = []metricSpec{
	{"mediator.unfold_attempts", "count"},
	{"mediator.discarded_ms", "ms"},
	{"mediator.compile_ms", "ms"},
	{"mediator.optimize_ms", "ms"},
	{"mediator.execute_ms", "ms"},
	{"mediator.tag_ms", "ms"},
	{"mediator.exec_sql_ms", "ms"},
	{"mediator.exec_copy_ms", "ms"},
	{"mediator.exec_syn_ms", "ms"},
	{"mediator.exec_inh_ms", "ms"},
	{"mediator.source_queries", "count"},
	{"mediator.sim_cost_s", "s"},
	{"specialize.unfold_ms", "ms"},
	{"source.exec_ms", "ms"},
	{"source.exec_calls", "count"},
	{"source.rows_out", "count"},
	{"source.table_data_calls", "count"},
	{"sqlmini.rows_scanned", "count"},
	{"relstore.inserts_per_req", "count"},
	{"relstore.wal_bytes_per_write", "bytes"},
	{"xmltree.render_ms", "ms"},
	{"xmltree.doc_mb", "MB"},
	{"xpath.compile_us", "us"},
	{"aig.partial_ms", "ms"},
	{"aig.partial_queries", "count"},
	{"serve.stream_ms", "ms"},
	{"serve.self_ms", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.derived_ratio", "ratio"},
	{"serve.evictions_per_kread", "count"},
	{"serve.refresh_delta_ratio", "ratio"},
	{"serve.refresh_eval_ms", "ms"},
	{"serve.read_p99_ms", "ms"},
	{"serve.write_ms", "ms"},
	{"serve.fresh_ms", "ms"},
	{"ivm.judge_us", "us"},
	{"ivm.irrelevant_ratio", "ratio"},
	{"runtime.mallocs_k", "count"},
	{"runtime.gc_cpu_ms", "ms"},
	{"obs.trace_overhead_pct", "%"},
}

// outcome is what a workload run produced.
type outcome struct {
	attempted int
	checks    checks
	metrics   map[string]float64
	// counts are the run's deterministic work counts: with a fixed work
	// limit, two runs with one seed reproduce them exactly.
	counts map[string]int64
	// samples are the latency samples behind the median metrics, printed
	// to standard error with their count and range.
	samples map[string][]float64
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*outcome, error){
	"full-doc": runFullDoc,
	"fragment": runFragment,
	"warm-rw":  runWarmRW,
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: full-doc, fragment or warm-rw")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "how long the run measures")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", names)
		return 2
	}
	dir, cleanup, err := scratchDir()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer cleanup()

	cfg := config{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1,
		dir:    dir,
	}
	out, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	specs := endToEnd
	if cfg.traced {
		specs = perLayer
	}
	res := resultJSON{
		Correct:   out.checks.failed == 0,
		Attempted: out.attempted,
		Failed:    out.checks.failed,
		Metrics:   make(map[string]metricJSON, len(specs)),
	}
	for _, p := range out.checks.problems {
		fmt.Fprintf(stderr, "check failed: %s\n", p)
	}
	fmt.Fprintf(stderr, "%s seed=%d trace=%d attempted=%d failed=%d\n", *workload, *seed, *trace, out.attempted, out.checks.failed)
	for _, s := range specs {
		v, ok := out.metrics[s.name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: %s did not report %s\n", *workload, s.name)
			return 1
		}
		res.Metrics[s.name] = metricJSON{Value: v, Unit: s.unit}
		fmt.Fprintf(stderr, "  %-30s %14.4f %s\n", s.name, v, s.unit)
	}
	names := make([]string, 0, len(out.counts))
	for n := range out.counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stderr, "  count %-24s %d\n", n, out.counts[n])
	}
	names = names[:0]
	for n := range out.samples {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		xs := out.samples[n]
		fmt.Fprintf(stderr, "  samples %-22s n=%d min %.4g q1 %.4g median %.4g q3 %.4g max %.4g\n", n, len(xs),
			quantile(xs, 0), quantile(xs, 0.25), median(xs), quantile(xs, 0.75), quantile(xs, 1))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
