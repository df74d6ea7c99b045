// Command bench is the repository's layered benchmark. One process runs one
// workload for a fixed window, checks every answer, and prints its metrics:
//
//	bash bench/run.sh --workload route_closed --seed 3 --seconds 25 --trace 0
//	bash bench/run.sh compare runs/a/*.out -- runs/b/*.out
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 the run also records spans, runs the layer
// probes, writes a Chrome trace and prints the per-layer metrics instead.
// A wrong answer makes the command exit with status 1. See README.md for the
// workloads, the metrics and the layer each one attributes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricSpec names one reported metric; the same entries appear in
// BENCHMARK.json, which a test keeps in step with these tables.
type metricSpec struct {
	name, unit, better string
}

// endToEnd is what a user of the system sees. Every workload reports all of
// them; each workload's unit of work is named in README.md.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"latency_ms_p50", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"heap_live_mb", "MB", "lower"},
}

// perLayer attributes the end-to-end numbers to layers. A layer a workload
// does not exercise reads 0 there.
var perLayer = []metricSpec{
	{"core.place_ms", "ms", "lower"},
	{"dataset.build_ms", "ms", "lower"},
	{"gnn3d.train_ms", "ms", "lower"},
	{"relax.flow_ms", "ms", "lower"},
	{"route.flow_ms", "ms", "lower"},
	{"core.unattributed_pct", "%", "lower"},
	{"serve.queue_ms_mean", "ms", "lower"},
	{"serve.batch_wait_ms_mean", "ms", "lower"},
	{"serve.hit_ms_p50", "ms", "lower"},
	{"serve.cache_ms_p50", "ms", "lower"},
	{"serve.relax_ms_p50", "ms", "lower"},
	{"serve.score_ms_p50", "ms", "lower"},
	{"serve.route_ms_p50", "ms", "lower"},
	{"serve.other_ms_p50", "ms", "lower"},
	{"client.wait_ms_mean", "ms", "lower"},
	{"loadgen.late_ms_max", "ms", "lower"},
	{"relax.evals_per_op", "count", "lower"},
	{"relax.retried", "count", "lower"},
	{"relax.dropped", "count", "lower"},
	{"route.iters_per_op", "count", "lower"},
	{"route.ripups_per_op", "count", "lower"},
	{"serve.wave_members_mean", "count", "higher"},
	{"servecache.hits", "count", "higher"},
	{"servecache.misses", "count", "lower"},
	{"servecache.hit_pct", "%", "higher"},
	{"route.label_ms.ota1", "ms", "lower"},
	{"route.label_ms.ota3", "ms", "lower"},
	{"route.uniform_ms.ota1", "ms", "lower"},
	{"route.uniform_ms.ota3", "ms", "lower"},
	{"route.iters.ota1", "count", "lower"},
	{"route.iters.ota3", "count", "lower"},
	{"route.allocs.ota1", "count", "lower"},
	{"route.allocs.ota3", "count", "lower"},
	{"extract.ms.ota1", "ms", "lower"},
	{"extract.ms.ota3", "ms", "lower"},
	{"circuit.eval_ms.ota1", "ms", "lower"},
	{"circuit.eval_ms.ota3", "ms", "lower"},
	{"relax.optimize_ms.ota1", "ms", "lower"},
	{"relax.optimize_ms.ota3", "ms", "lower"},
	{"gnn3d.session_fb_ms.ota1", "ms", "lower"},
	{"gnn3d.session_fb_ms.ota3", "ms", "lower"},
	{"gnn3d.session_fb_allocs", "count", "lower"},
	{"gnn3d.predict_batch_ms", "ms", "lower"},
	{"tensor.matmul_ms", "ms", "lower"},
	{"tensor.matmul_mflop", "Mflop", "lower"},
	{"go.alloc_mb_per_op", "MB", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.spans", "count", "higher"},
	{"trace.dropped", "count", "lower"},
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 25, "length of the measured window")
	trace := fs.Int("trace", 0, "1 records spans, runs the layer probes and prints per-layer metrics")
	traceOut := fs.String("trace-out", "", "Chrome trace file of a traced run (default .bench_build/trace-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: need --workload (%s), --seconds >= 1 and --trace 0 or 1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := runConfig{
		workload: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, traceOut: *traceOut, sc: fullScale(), log: stderr,
	}
	if cfg.trace && cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", *workload, *seed))
	}
	res, err := runWorkload(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "# workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *trace)
	printTable(stderr, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printTable writes the metrics for a human reader.
func printTable(w io.Writer, res result) {
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}
