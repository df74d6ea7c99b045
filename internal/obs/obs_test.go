package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"testing"
	"time"
)

// fakeClock is a deterministic clock stepping a fixed amount per call.
func fakeClock(step time.Duration) Clock {
	t := time.Unix(1700000000, 0)
	return func() time.Time {
		t = t.Add(step)
		return t
	}
}

func TestSpanHierarchy(t *testing.T) {
	tel := New(Options{Seed: 7, Clock: fakeClock(time.Millisecond)})
	ctx := WithTelemetry(context.Background(), tel)

	ctx1, root := StartSpan(ctx, "flow")
	ctx2, child := StartSpan(ctx1, "relaxation")
	if root == nil || child == nil {
		t.Fatal("spans should be live with telemetry attached")
	}
	Event(ctx2, "relax.restart", Arg{"restart", 0}, Arg{"potential", -1.5})
	child.End()
	root.Arg("bench", "OTA1-A").End()

	evs := tel.Recorder().Snapshot()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	// Recorded in completion order: instant, child span, root span.
	inst, childEv, rootEv := evs[0], evs[1], evs[2]
	if inst.Phase != PhaseInstant || inst.Name != "relax.restart" {
		t.Errorf("instant event = %+v", inst)
	}
	if inst.Args.Get("potential") != -1.5 || inst.Args.Get("restart") != 0 {
		t.Errorf("instant args given out of key order = %v, want them sorted and found", inst.Args)
	}
	if inst.Parent != childEv.ID {
		t.Errorf("instant parent %d, want child span id %d", inst.Parent, childEv.ID)
	}
	if childEv.Parent != rootEv.ID {
		t.Errorf("child parent %d, want root id %d", childEv.Parent, rootEv.ID)
	}
	if childEv.Track != rootEv.Track {
		t.Errorf("child track %d != root track %d", childEv.Track, rootEv.Track)
	}
	if rootEv.DurUS <= childEv.DurUS {
		t.Errorf("root duration %dus should exceed child %dus", rootEv.DurUS, childEv.DurUS)
	}
	if rootEv.Args.Get("bench") != "OTA1-A" {
		t.Errorf("root args = %v", rootEv.Args)
	}
}

func TestSpanIDsDeterministic(t *testing.T) {
	ids := func() []uint64 {
		tel := New(Options{Seed: 42, Clock: fakeClock(time.Millisecond)})
		ctx := WithTelemetry(context.Background(), tel)
		var out []uint64
		for i := 0; i < 5; i++ {
			_, s := StartSpan(ctx, "stage")
			s.End()
			out = append(out, s.id)
		}
		return out
	}
	a, b := ids(), ids()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("span %d: id %d vs %d — IDs must be a pure function of (seed, index)", i, a[i], b[i])
		}
		if a[i] == 0 {
			t.Fatalf("span %d: zero id", i)
		}
	}
	other := New(Options{Seed: 43, Clock: fakeClock(time.Millisecond)})
	octx := WithTelemetry(context.Background(), other)
	_, s := StartSpan(octx, "stage")
	s.End()
	if s.id == a[0] {
		t.Error("different seeds produced the same first span id")
	}
}

// TestDisabledPathAllocationFree pins the nil-sink fast path: starting and
// ending spans, recording guarded events and touching nil instrument handles
// must not allocate when no telemetry is attached — this is what keeps the
// instrumented hot loops free when telemetry is off.
func TestDisabledPathAllocationFree(t *testing.T) {
	ctx := context.Background()
	var c *Counter
	var h *Histogram
	var slo *SLO
	hdr := make(http.Header, 1)
	allocs := testing.AllocsPerRun(100, func() {
		sctx, span := StartSpan(ctx, "stage")
		tel := FromContext(sctx)
		if tel.Enabled() {
			Event(sctx, "ev", Arg{"x", 1})
		}
		c.Inc()
		h.Observe(time.Millisecond)
		h.ObserveExemplar(time.Millisecond, "rid")
		StagesFrom(sctx).Add(StageQueue, time.Millisecond)
		if _, ok := ActiveTraceContext(sctx); ok {
			t.Error("disabled context reported an active trace")
		}
		InjectTraceparent(sctx, hdr)
		slo.Record(time.Millisecond, true)
		SpanCollectorFrom(sctx).add(SpanSummary{})
		span.End()
	})
	if allocs != 0 {
		t.Errorf("disabled telemetry path allocates %.1f objects/op, want 0", allocs)
	}
}

func TestWriteTraceValidChrome(t *testing.T) {
	tel := New(Options{Seed: 1, Clock: fakeClock(time.Millisecond)})
	ctx := WithTelemetry(context.Background(), tel)
	sctx, span := StartSpan(ctx, "placement")
	Event(sctx, "note")
	span.End()

	var buf bytes.Buffer
	if err := tel.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			TS    int64  `json:"ts"`
			Dur   *int64 `json:"dur"`
			PID   int    `json:"pid"`
			Scope string `json:"s"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(out.TraceEvents) != 2 {
		t.Fatalf("got %d trace events, want 2", len(out.TraceEvents))
	}
	var sawSpan, sawInstant bool
	for _, e := range out.TraceEvents {
		switch e.Phase {
		case "X":
			sawSpan = true
			if e.Dur == nil || *e.Dur <= 0 {
				t.Errorf("complete event %q needs a positive dur", e.Name)
			}
		case "i":
			sawInstant = true
			if e.Scope != "t" {
				t.Errorf("instant event %q scope = %q, want t", e.Name, e.Scope)
			}
		}
		if e.PID != 1 {
			t.Errorf("event %q pid = %d, want 1", e.Name, e.PID)
		}
	}
	if !sawSpan || !sawInstant {
		t.Errorf("trace missing phases: span=%v instant=%v", sawSpan, sawInstant)
	}

	// A disabled sink still exports a valid (empty) trace.
	buf.Reset()
	var none *Telemetry
	if err := none.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("empty trace invalid: %v", err)
	}
}

func TestLoggerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, slog.LevelInfo, "json")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("running benchmark", "bench", "OTA1-A")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("json log line invalid: %v (%s)", err, buf.String())
	}
	if rec["msg"] != "running benchmark" || rec["bench"] != "OTA1-A" {
		t.Errorf("log record = %v", rec)
	}
	lg.Debug("hidden")
	if bytes.Contains(buf.Bytes(), []byte("hidden")) {
		t.Error("debug line leaked through info level")
	}

	if _, err := NewLogger(&buf, slog.LevelInfo, "yaml"); err == nil {
		t.Error("unknown format accepted")
	}
	if _, err := ParseLevel("noisy"); err == nil {
		t.Error("unknown level accepted")
	}
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "INFO": slog.LevelInfo,
		"warn": slog.LevelWarn, "error": slog.LevelError, "": slog.LevelInfo,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", in, got, err)
		}
	}
}
