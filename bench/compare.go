package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json that compare and the tests
// read.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// savedRun is one run's saved standard output.
type savedRun struct {
	workload string
	trace    bool
	res      result
}

// readRun parses a file holding a run's standard output: the "# workload="
// header line and the result JSON on the last line.
func readRun(path string) (savedRun, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return savedRun{}, err
	}
	var run savedRun
	var last string
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		last = line
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			for _, field := range strings.Fields(rest) {
				k, v, _ := strings.Cut(field, "=")
				switch k {
				case "workload":
					run.workload = v
				case "trace":
					run.trace = v == "1"
				}
			}
		}
	}
	if run.workload == "" {
		return savedRun{}, fmt.Errorf("%s: no \"# workload=\" header line", path)
	}
	if err := json.Unmarshal([]byte(last), &run.res); err != nil {
		return savedRun{}, fmt.Errorf("%s: last line: %w", path, err)
	}
	return run, nil
}

// Verdicts of one metric on one workload.
const (
	verdictWithin     = "within bound"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict judges B against A for one metric. B regressed when its median is
// worse than A's by more than bound (a share of A's median). When either
// side's quartile spread is wider than bound the runs cannot tell, and the
// metric is unresolved unless every B run beats every A run.
func verdict(a, b []float64, better string, bound float64) string {
	sign := 1.0 // +1: lower is better
	if better == "higher" {
		sign = -1
	}
	medA := median(a)
	spread := func(v []float64) float64 {
		q := quartiles(v)
		if m := median(v); m != 0 {
			return (q[2] - q[0]) / math.Abs(m)
		}
		return 0
	}
	if spread(a) > bound || spread(b) > bound {
		worstB, bestA := math.Inf(-1), math.Inf(1)
		for _, x := range b {
			worstB = math.Max(worstB, sign*x)
		}
		for _, x := range a {
			bestA = math.Min(bestA, sign*x)
		}
		if worstB < bestA {
			return verdictWithin
		}
		return verdictUnresolved
	}
	if medA != 0 && sign*(median(b)-medA)/math.Abs(medA) > bound {
		return verdictRegressed
	}
	return verdictWithin
}

// compareMain implements `bench compare [-spec FILE] A... -- B...`: per
// workload, each metric's median and quartiles over the A runs and the B
// runs, with a verdict against the bounds of BENCHMARK.json for the
// end-to-end metrics. It exits 1 when any metric regressed or B failed a
// larger share of its operations than A.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()
	sep := -1
	for i, a := range rest {
		if a == "--" {
			sep = i
			break
		}
	}
	if sep <= 0 || sep == len(rest)-1 {
		fmt.Fprintln(stderr, "usage: bench compare [-spec BENCHMARK.json] A-runs... -- B-runs...")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 1
	}
	var sides [2][]savedRun
	for s, paths := range [2][]string{rest[:sep], rest[sep+1:]} {
		for _, p := range paths {
			run, err := readRun(p)
			if err != nil {
				fmt.Fprintln(stderr, "bench compare:", err)
				return 1
			}
			sides[s] = append(sides[s], run)
		}
	}
	regressed := false
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			a, b := pick(sides[0], w.Name, traced), pick(sides[1], w.Name, traced)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			fmt.Fprintf(stdout, "%s trace=%v  A: %d runs  B: %d runs\n", w.Name, traced, len(a), len(b))
			fmt.Fprintf(stdout, "  %-26s %-6s %-34s %-34s %8s %6s  %s\n",
				"metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "verdict")
			if failRate(b) > failRate(a) {
				regressed = true
			}
			fmt.Fprintf(stdout, "  %-26s %-6s %-34s %-34s\n", "failed/attempted", "%",
				fmt.Sprintf("%.3f", failRate(a)), fmt.Sprintf("%.3f", failRate(b)))
			if !traced {
				for _, m := range spec.EndToEnd {
					va, vb := values(a, m.Name), values(b, m.Name)
					v := verdict(va, vb, m.Better, m.Bound)
					regressed = regressed || v == verdictRegressed
					row(stdout, m.Name, m.Unit, va, vb, fmt.Sprintf("%.0f%%", 100*m.Bound), v)
				}
				continue
			}
			for _, m := range spec.PerLayer {
				row(stdout, m.Name, m.Unit, values(a, m.Name), values(b, m.Name), "-", "-")
			}
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func pick(runs []savedRun, workload string, traced bool) []savedRun {
	var out []savedRun
	for _, r := range runs {
		if r.workload == workload && r.trace == traced {
			out = append(out, r)
		}
	}
	return out
}

func values(runs []savedRun, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.res.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// failRate is the percentage of attempted operations that failed.
func failRate(runs []savedRun) float64 {
	att, failed := 0, 0
	for _, r := range runs {
		att += r.res.Attempted
		failed += r.res.Failed
	}
	if att == 0 {
		return 0
	}
	return 100 * float64(failed) / float64(att)
}

func row(w io.Writer, name, unit string, a, b []float64, bound, verdict string) {
	if len(a) == 0 || len(b) == 0 {
		fmt.Fprintf(w, "  %-26s %-6s missing in one side's runs\n", name, unit)
		return
	}
	cell := func(v []float64) string {
		q := quartiles(v)
		return fmt.Sprintf("%.4g [%.4g, %.4g]", median(v), q[0], q[2])
	}
	change := "-"
	if ma := median(a); ma != 0 {
		change = fmt.Sprintf("%+.1f%%", 100*(median(b)-ma)/math.Abs(ma))
	}
	fmt.Fprintf(w, "  %-26s %-6s %-34s %-34s %8s %6s  %s\n", name, unit, cell(a), cell(b), change, bound, verdict)
}
