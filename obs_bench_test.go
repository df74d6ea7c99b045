package analogfold_bench

import (
	"context"
	"encoding/json"
	"runtime"
	"sort"
	"testing"
	"time"

	"analogfold/internal/atomicfile"
	"analogfold/internal/gnn3d"
	"analogfold/internal/grid"
	"analogfold/internal/guidance"
	"analogfold/internal/hetgraph"
	"analogfold/internal/netlist"
	"analogfold/internal/obs"
	"analogfold/internal/place"
	"analogfold/internal/relax"
	"analogfold/internal/route"
	"analogfold/internal/tech"
)

// obsBenchRow is one workload's row in the BENCH_obs.json report. A run that
// measures faster with telemetry on than off is scheduling noise, not a real
// speedup: its overhead is clamped to 0 and the row flagged noise_floor.
type obsBenchRow struct {
	Workload    string  `json:"workload"`
	OffMs       float64 `json:"off_ms"`
	OnMs        float64 `json:"on_ms"`
	OverheadPct float64 `json:"overhead_pct"`
	NoiseFloor  bool    `json:"noise_floor,omitempty"`
	Events      uint64  `json:"events_recorded"`
}

// overheadPct computes the on-vs-off overhead, clamping negative values
// (below the measurement noise floor) to zero with a flag.
func overheadPct(off, on time.Duration) (float64, bool) {
	pct := (on.Seconds()/off.Seconds() - 1) * 100
	if pct < 0 {
		return 0, true
	}
	return pct, false
}

// obsReport is the machine-readable output of BenchmarkObsOverhead, with the
// same host-shape preamble as BENCH_route.json / BENCH_parallel.json.
type obsReport struct {
	GoMaxProcs     int           `json:"gomaxprocs"`
	NumCPU         int           `json:"numcpu"`
	DegenerateHost bool          `json:"degenerate_host"`
	Rows           []obsBenchRow `json:"workloads"`
}

// obsGrid is builtGrid for either test or benchmark callers.
func obsGrid(tb testing.TB) *grid.Grid {
	tb.Helper()
	p, err := place.Place(netlist.OTA1(), place.Config{Profile: place.ProfileA, Seed: 1, Iterations: 1500})
	if err != nil {
		tb.Fatal(err)
	}
	g, err := grid.Build(p, tech.Sim40())
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// medianWall runs fn reps times and returns the median wall time — the
// noise-resistant center for an overhead comparison.
func medianWall(tb testing.TB, reps int, fn func() error) time.Duration {
	tb.Helper()
	times := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			tb.Fatal(err)
		}
		times = append(times, time.Since(t0))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2]
}

// medianWallPaired times a and b in reps interleaved pairs, alternating which
// of the two runs first, and returns a's median wall time and, for b, that
// median plus the median per-pair difference b − a. Timing all of a's reps
// and then all of b's lands host drift on one side of an overhead
// comparison; differencing within a pair cancels the drift both halves
// share, and a real overhead still adds to every difference.
func medianWallPaired(tb testing.TB, reps int, a, b func() error) (time.Duration, time.Duration) {
	tb.Helper()
	fns := [2]func() error{a, b}
	var at, deltas []time.Duration
	for i := 0; i < reps; i++ {
		var d [2]time.Duration
		for k := 0; k < 2; k++ {
			side := (i + k) % 2
			t0 := time.Now()
			if err := fns[side](); err != nil {
				tb.Fatal(err)
			}
			d[side] = time.Since(t0)
		}
		at = append(at, d[0])
		deltas = append(deltas, d[1]-d[0])
	}
	for _, ts := range [][]time.Duration{at, deltas} {
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	}
	return at[reps/2], at[reps/2] + deltas[reps/2]
}

// BenchmarkObsOverhead measures each instrumented hot path — negotiated
// routing and potential relaxation — with the telemetry sink detached (the
// production default for library callers) and attached, and writes
// BENCH_obs.json. The design budget is <5% overhead when enabled and zero
// when disabled; TestObsOverheadSmoke enforces the enabled budget with
// scheduling slack, and TestDisabledPathAllocationFree (internal/obs) pins
// the disabled one.
func BenchmarkObsOverhead(b *testing.B) {
	g := obsGrid(b)
	gd := guidance.Uniform(len(g.Place.Circuit.Nets))
	hg, err := hetgraph.Build(g, hetgraph.Config{})
	if err != nil {
		b.Fatal(err)
	}
	m := gnn3d.New(gnn3d.Config{Seed: 1, Hidden: 16, Layers: 2, RBFBins: 8})
	workloads := []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"route", func(ctx context.Context) error {
			_, err := route.RouteCtx(ctx, g, gd, route.Config{})
			return err
		}},
		{"relax", func(ctx context.Context) error {
			_, err := relax.Optimize(ctx, m, hg, relax.Config{Restarts: 4, MaxIter: 10, Seed: 1})
			return err
		}},
	}

	rep := obsReport{
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		DegenerateHost: runtime.NumCPU() < 2,
	}
	const reps = 5
	for _, w := range workloads {
		if err := w.run(context.Background()); err != nil { // warm-up
			b.Fatal(err)
		}
		off := medianWall(b, reps, func() error { return w.run(context.Background()) })
		tel := obs.New(obs.Options{Seed: 1})
		ctx := obs.WithTelemetry(context.Background(), tel)
		on := medianWall(b, reps, func() error { return w.run(ctx) })
		pct, noise := overheadPct(off, on)
		row := obsBenchRow{
			Workload:    w.name,
			OffMs:       float64(off.Microseconds()) / 1e3,
			OnMs:        float64(on.Microseconds()) / 1e3,
			OverheadPct: pct,
			NoiseFloor:  noise,
			Events:      tel.Recorder().Total(),
		}
		rep.Rows = append(rep.Rows, row)
		b.Logf("%-9s off %8.2fms  on %8.2fms  overhead %+6.2f%%  noise_floor=%v events=%d",
			w.name, row.OffMs, row.OnMs, row.OverheadPct, row.NoiseFloor, row.Events)
	}

	// The propagation workload isolates the cross-process tracing machinery:
	// "off" is plain enabled telemetry, "on" additionally joins a remote
	// parent, collects span summaries, and encodes the response trailer —
	// exactly what a traced serve request pays over an untraced one.
	{
		telOff := obs.New(obs.Options{Seed: 1})
		ctxOff := obs.WithTelemetry(context.Background(), telOff)
		if err := workloads[1].run(ctxOff); err != nil { // warm-up
			b.Fatal(err)
		}
		off := medianWall(b, reps, func() error { return workloads[1].run(ctxOff) })
		telOn := obs.New(obs.Options{Seed: 1})
		remote := obs.TraceContext{TraceID: "0123456789abcdef0123456789abcdef", SpanID: 0x42}
		on := medianWall(b, reps, func() error {
			ctx := obs.WithTelemetry(context.Background(), telOn)
			ctx = obs.WithRemoteParent(ctx, remote)
			col := obs.NewSpanCollector(obs.MaxExportSpans)
			ctx = obs.WithSpanCollector(ctx, col)
			if err := workloads[1].run(ctx); err != nil {
				return err
			}
			_ = col.EncodeJSON()
			return nil
		})
		pct, noise := overheadPct(off, on)
		row := obsBenchRow{
			Workload:    "propagate",
			OffMs:       float64(off.Microseconds()) / 1e3,
			OnMs:        float64(on.Microseconds()) / 1e3,
			OverheadPct: pct,
			NoiseFloor:  noise,
			Events:      telOn.Recorder().Total(),
		}
		rep.Rows = append(rep.Rows, row)
		b.Logf("%-9s off %8.2fms  on %8.2fms  overhead %+6.2f%%  noise_floor=%v events=%d",
			row.Workload, row.OffMs, row.OnMs, row.OverheadPct, row.NoiseFloor, row.Events)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := atomicfile.WriteFile("BENCH_obs.json", append(buf, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Log("wrote BENCH_obs.json")

	tel := obs.New(obs.Options{Seed: 1})
	ctx := obs.WithTelemetry(context.Background(), tel)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := route.RouteCtx(ctx, g, gd, route.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestObsOverheadSmoke is the cheap CI guard behind BenchmarkObsOverhead: the
// telemetry-on median of one routing pass must stay within the 5% budget plus
// a fixed scheduling-noise allowance. The absolute slack keeps a loaded CI
// host from flaking the suite while still catching a real regression (an
// accidental allocation or lock inside the A* loop shows up as tens of
// percent, not five).
func TestObsOverheadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead timing in -short mode")
	}
	g := obsGrid(t)
	gd := guidance.Uniform(len(g.Place.Circuit.Nets))
	run := func(ctx context.Context) error {
		_, err := route.RouteCtx(ctx, g, gd, route.Config{})
		return err
	}
	if err := run(context.Background()); err != nil { // warm-up
		t.Fatal(err)
	}
	const reps = 9
	tel := obs.New(obs.Options{Seed: 1})
	ctx := obs.WithTelemetry(context.Background(), tel)
	off, on := medianWallPaired(t, reps,
		func() error { return run(context.Background()) },
		func() error { return run(ctx) })

	slack := 10 * time.Millisecond
	budget := time.Duration(float64(off)*1.05) + slack
	t.Logf("route median: off=%v on=%v budget=%v events=%d", off, on, budget, tel.Recorder().Total())
	if on > budget {
		t.Errorf("telemetry overhead too high: on=%v > 1.05*off+%v (off=%v)", on, slack, off)
	}
	if tel.Recorder().Total() == 0 {
		t.Error("telemetry-on run recorded no events — instrumentation is disconnected")
	}
}

// TestPropagationOverheadSmoke enforces the tentpole's propagation budget:
// joining a remote trace and collecting span summaries for trailer export
// must stay within 5% of a plain telemetry-enabled run (plus the same
// scheduling-noise slack as TestObsOverheadSmoke).
func TestPropagationOverheadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead timing in -short mode")
	}
	g := obsGrid(t)
	gd := guidance.Uniform(len(g.Place.Circuit.Nets))
	run := func(ctx context.Context) error {
		_, err := route.RouteCtx(ctx, g, gd, route.Config{})
		return err
	}
	// Both paths mirror a serve handler: a root span around the work. The
	// traced path additionally joins the remote parent, collects summaries,
	// and encodes the trailer — the propagation delta under test.
	telOff := obs.New(obs.Options{Seed: 1})
	ctxOff := obs.WithTelemetry(context.Background(), telOff)
	if err := run(ctxOff); err != nil { // warm-up
		t.Fatal(err)
	}
	const reps = 9
	telOn := obs.New(obs.Options{Seed: 1})
	remote := obs.TraceContext{TraceID: "0123456789abcdef0123456789abcdef", SpanID: 0x42}
	var exported int
	off, on := medianWallPaired(t, reps, func() error {
		sctx, span := obs.StartSpan(ctxOff, "request")
		defer span.End()
		return run(sctx)
	}, func() error {
		ctx := obs.WithTelemetry(context.Background(), telOn)
		ctx = obs.WithRemoteParent(ctx, remote)
		col := obs.NewSpanCollector(obs.MaxExportSpans)
		ctx = obs.WithSpanCollector(ctx, col)
		sctx, span := obs.StartSpan(ctx, "request")
		if err := run(sctx); err != nil {
			span.End()
			return err
		}
		span.End()
		if s := col.EncodeJSON(); s != "" {
			exported = len(s)
		}
		return nil
	})

	slack := 10 * time.Millisecond
	budget := time.Duration(float64(off)*1.05) + slack
	t.Logf("route median: plain=%v traced=%v budget=%v trailer_bytes=%d", off, on, budget, exported)
	if on > budget {
		t.Errorf("propagation overhead too high: traced=%v > 1.05*plain+%v (plain=%v)", on, slack, off)
	}
	if exported == 0 {
		t.Error("traced run exported no span summaries — the collector is disconnected")
	}
}
