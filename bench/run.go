package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"analogfold/internal/circuit"
	"analogfold/internal/core"
	"analogfold/internal/hetgraph"
	"analogfold/internal/obs"
)

type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	traceOut string
	sc       scale
	log      io.Writer
}

// runner holds one run's state. Request goroutines write the fields below
// mu during the window.
type runner struct {
	runConfig
	st    *stack
	flows map[string]flowEntry

	tel      *obs.Telemetry // bench-side spans; nil unless tracing
	inWindow atomic.Bool
	traceNS  atomic.Int64 // time spent in bench-side span calls during the window
	spans    atomic.Int64 // bench-side spans opened during the window

	callers    int // closed-loop callers; 0 for the open loop
	start      time.Time
	elapsed    time.Duration
	mem0, mem1 runtime.MemStats
	ev0, ev1   uint64 // trace events recorded before and after the window

	mu        sync.Mutex
	attempted int
	failed    int
	lat       []float64     // ms per successful operation
	busy      time.Duration // sum of successful operations' latencies
	samples   map[string][]float64
	layer     map[string]float64
	problems  []string
	bodies    map[string]uint64     // cache key → hash of its first body
	first     map[string]servedBody // benchmark → first guidance body served
}

type flowEntry struct {
	f  *core.Flow
	hg *hetgraph.Graph
}

type servedBody struct {
	seed int64
	body []byte
}

// traceRing holds every span and pipeline event of a traced run, so none is
// dropped: a traced run records about five thousand events at most (one
// per hit-probe request), far under this.
const traceRing = 1 << 19

// runWorkload sets the system up, runs one workload's window, checks the
// answers and assembles the result.
func runWorkload(ctx context.Context, cfg runConfig) (result, error) {
	r := &runner{
		runConfig: cfg,
		flows:     make(map[string]flowEntry),
		samples:   make(map[string][]float64),
		layer:     make(map[string]float64),
		bodies:    make(map[string]uint64),
		first:     make(map[string]servedBody),
	}
	if cfg.trace {
		r.tel = obs.New(obs.Options{Seed: cfg.seed, FlightCapacity: traceRing})
		ctx = obs.WithTelemetry(ctx, r.tel)
	}
	st, err := newStack(context.Background(), cfg.sc)
	if err != nil {
		return result{}, err
	}
	defer st.close()
	r.st = st

	if err := workloads[cfg.workload](r, ctx); err != nil {
		return result{}, err
	}
	if r.attempted == 0 {
		return result{}, errors.New("no operation ran in the window")
	}
	if err := r.checkReferenceBodies(ctx); err != nil {
		return result{}, err
	}
	// Untraced runs still route one sampled guidance set through the DRC and
	// LVS oracles; traced runs do it for every label-probe draw.
	if cfg.trace {
		if err := r.labelProbe(ctx, []string{cfg.sc.small, cfg.sc.large}, cfg.sc.labelDraws); err != nil {
			return result{}, err
		}
		if err := r.modelProbe(ctx); err != nil {
			return result{}, err
		}
	} else if err := r.labelProbe(ctx, []string{cfg.sc.small}, 1); err != nil {
		return result{}, err
	}

	res := result{
		Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metric),
	}
	if !cfg.trace {
		setup := make([]float64, len(st.setup))
		for i, d := range st.setup {
			setup[i] = d.Seconds()
		}
		values := map[string]float64{
			"setup_s":        median(setup),
			"latency_ms_p50": median(r.lat),
			"ops_per_s":      r.throughput(),
		}
		summary := fmt.Sprintf("bench: %d operations in %.1fs, latency ms median %.3f",
			len(r.lat), r.elapsed.Seconds(), values["latency_ms_p50"])
		for _, q := range []float64{0.999, 0.99, 0.9} {
			if v, err := tail(r.lat, q); err == nil {
				summary += fmt.Sprintf(", p%g %.3f", 100*q, v)
				break
			}
		}
		fmt.Fprintln(r.log, summary)
		// What stays reachable once the benchmark's own per-operation
		// records are dropped is the system's: checkpoint, daemon, placed
		// flows and cached bodies.
		r.lat, r.samples = nil, nil
		runtime.GC()
		runtime.GC() // the second also empties the sync.Pools' victim caches
		values["heap_live_mb"] = float64(memStats().HeapAlloc) / 1e6
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
		}
		return res, nil
	}
	for name, v := range r.samples {
		if strings.HasSuffix(name, "_mean") {
			r.layer[name] = mean(v)
		} else {
			r.layer[name] = median(v)
		}
	}
	r.layer["go.alloc_mb_per_op"] = float64(r.mem1.TotalAlloc-r.mem0.TotalAlloc) / 1e6 / float64(r.attempted)
	r.layer["go.gc_cycles"] = float64(r.mem1.NumGC - r.mem0.NumGC)
	if err := r.finishTrace(); err != nil {
		return result{}, err
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: r.layer[m.name], Unit: m.unit}
	}
	return res, nil
}

// beginWindow starts the measured window and returns the index sequence of
// its closed loop (unused by the open loop, which has a schedule instead).
func (r *runner) beginWindow(callers int) *sequence {
	r.callers = callers
	r.mem0 = memStats()
	r.ev0 = r.tel.Recorder().Total()
	r.start = time.Now()
	r.inWindow.Store(true)
	return &sequence{deadline: r.start.Add(r.window)}
}

func (r *runner) endWindow() {
	r.elapsed = time.Since(r.start)
	r.inWindow.Store(false)
	r.ev1 = r.tel.Recorder().Total()
	r.mem1 = memStats()
}

// done records one successful operation's latency; callers hold mu.
func (r *runner) done(d time.Duration) {
	r.lat = append(r.lat, ms(d))
	r.busy += d
}

// throughput is successful operations per second. A closed loop's callers
// are never idle between operations, so it is callers ÷ mean latency
// (Little's law), which leaves out the tail where the last caller finishes
// alone; the open loop's is completions over the window's wall time.
func (r *runner) throughput() float64 {
	n := float64(len(r.lat))
	if r.callers > 0 {
		return n * float64(r.callers) / r.busy.Seconds()
	}
	return n / r.elapsed.Seconds()
}

// sample adds one per-layer observation; callers hold mu.
func (r *runner) sample(name string, v float64) {
	r.samples[name] = append(r.samples[name], v)
}

// problem records a wrong answer: the run reports correct=false.
func (r *runner) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.problemLocked(format, args...)
}

func (r *runner) problemLocked(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintln(r.log, "bench: wrong answer:", msg)
}

func (r *runner) checkMetricsLocked(what string, m circuit.Metrics, wirelengthNm int) {
	if !finite(m.OffsetUV, m.CMRRdB, m.BandwidthMHz, m.GainDB, m.NoiseUVrms) || wirelengthNm <= 0 {
		r.problemLocked("%s: metrics %+v wirelength %d nm", what, m, wirelengthNm)
	}
}

// flow returns the placed flow and graph of a benchmark built with the
// daemon's options: the inputs the daemon serves.
func (r *runner) flow(bench string) (*core.Flow, *hetgraph.Graph, error) {
	if e, ok := r.flows[bench]; ok {
		return e.f, e.hg, nil
	}
	c, p, err := core.ParseBenchmark(bench)
	if err != nil {
		return nil, nil, err
	}
	f, err := core.NewFlow(c, p, r.sc.opts)
	if err != nil {
		return nil, nil, err
	}
	hg, err := f.BuildHetGraph()
	if err != nil {
		return nil, nil, err
	}
	r.flows[bench] = flowEntry{f, hg}
	return f, hg, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}
