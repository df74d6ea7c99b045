package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"analogfold/internal/obs"
)

// span opens a bench-side span around a call into the system when tracing,
// and returns its closer. Inside the window, the time spent in the span
// calls themselves is summed as tracing cost.
func (r *runner) span(ctx context.Context, name string) (context.Context, func()) {
	if r.tel == nil {
		return ctx, func() {}
	}
	t0 := time.Now()
	ctx, sp := obs.StartSpan(ctx, name)
	cost := time.Since(t0)
	in := r.inWindow.Load()
	if in {
		r.spans.Add(1)
	}
	return ctx, func() {
		t1 := time.Now()
		sp.End()
		if in {
			r.traceNS.Add(int64(cost + time.Since(t1)))
		}
	}
}

// finishTrace writes the Chrome trace, prints per-layer self times and
// fills the trace.* metrics.
func (r *runner) finishTrace() error {
	rec := r.tel.Recorder()
	events := rec.Snapshot()
	if err := os.MkdirAll(filepath.Dir(r.traceOut), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(r.traceOut)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := obs.WriteTraceEvents(f, events); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	fmt.Fprintf(r.log, "bench: wrote %s (%d events)\n", r.traceOut, len(events))
	printSelfTimes(r.log, selfTimes(events))

	// Tracing cost in the window: the bench-side span calls, measured, plus
	// the events the pipeline recorded into the attached telemetry, at a
	// per-event cost calibrated here. The cost is far smaller than the
	// run-to-run spread, so the difference between a traced and an untraced
	// run's medians could not show it.
	pipelineEvents := int64(r.ev1-r.ev0) - r.spans.Load()
	cost := time.Duration(r.traceNS.Load()) + time.Duration(pipelineEvents)*eventCost()
	if r.busy > 0 {
		r.layer["trace.overhead_pct"] = 100 * float64(cost) / float64(r.busy)
	}
	r.layer["trace.spans"] = float64(rec.Total())
	r.layer["trace.dropped"] = float64(rec.Dropped())
	return nil
}

// eventCost is the mean cost of recording one span with an argument into a
// live telemetry sink.
func eventCost() time.Duration {
	const n = 4096
	ctx := obs.WithTelemetry(context.Background(), obs.New(obs.Options{FlightCapacity: n}))
	t0 := time.Now()
	for i := 0; i < n; i++ {
		_, sp := obs.StartSpan(ctx, "calibrate")
		sp.Arg("i", i).End()
	}
	return time.Since(t0) / n
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	name          string
	count         int
	totalUS, self int64
}

// selfTimes sums, per span name, the spans' durations and their self times:
// a span's duration minus the part its child spans cover. Children running
// in parallel can cover more than their parent; self time then reads 0.
func selfTimes(events []obs.FlightEvent) []layerTime {
	children := make(map[uint64]int64)
	for _, e := range events {
		if e.Phase == obs.PhaseSpan && e.Parent != 0 {
			children[e.Parent] += e.DurUS
		}
	}
	byName := make(map[string]*layerTime)
	for _, e := range events {
		if e.Phase != obs.PhaseSpan {
			continue
		}
		lt := byName[e.Name]
		if lt == nil {
			lt = &layerTime{name: e.Name}
			byName[e.Name] = lt
		}
		lt.count++
		lt.totalUS += e.DurUS
		if self := e.DurUS - children[e.ID]; self > 0 {
			lt.self += self
		}
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].name < out[j].name
	})
	return out
}

func printSelfTimes(w io.Writer, lts []layerTime) {
	fmt.Fprintf(w, "  %-32s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, lt := range lts {
		fmt.Fprintf(w, "  %-32s %8d %12.3f %12.3f\n", lt.name, lt.count, float64(lt.totalUS)/1e3, float64(lt.self)/1e3)
	}
}
