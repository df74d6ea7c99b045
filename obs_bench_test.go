package analogfold_bench

import (
	"context"
	"sort"
	"testing"
	"time"

	"analogfold/internal/grid"
	"analogfold/internal/guidance"
	"analogfold/internal/netlist"
	"analogfold/internal/obs"
	"analogfold/internal/place"
	"analogfold/internal/route"
	"analogfold/internal/tech"
)

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

// TestObsOverheadSmoke gates the telemetry layer's enabled-path budget
// (bench/ records it as trace.overhead_pct; TestDisabledPathAllocationFree in
// internal/obs pins the disabled path): the telemetry-on median of one
// routing pass must stay within the 5% budget plus a fixed scheduling-noise
// allowance. The absolute slack keeps a loaded CI host from flaking the suite
// while still catching a real regression (an accidental allocation or lock
// inside the A* loop shows up as tens of percent, not five).
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
