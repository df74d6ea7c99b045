package obs

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tc := TraceContext{TraceID: "0123456789abcdef0123456789abcdef", SpanID: 0xdeadbeefcafe0001}
	wire := FormatTraceparent(tc)
	if len(wire) != 55 {
		t.Fatalf("wire form %q is %d bytes, want 55", wire, len(wire))
	}
	got, ok := ParseTraceparent(wire)
	if !ok || got != tc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, tc)
	}
	for _, bad := range []string{
		"",
		"00-0123456789abcdef0123456789abcdef-deadbeefcafe0001-00", // unsampled flag
		"01-0123456789abcdef0123456789abcdef-deadbeefcafe0001-01", // wrong version
		"00-0123456789ABCDEF0123456789abcdef-deadbeefcafe0001-01", // upper-case hex
		"00-0123456789abcdef0123456789abcdef-0000000000000000-01", // zero span
		"00-0123456789abcdef0123456789abcdef-deadbeefcafe001-01",  // short span id
		wire + "x",
	} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent(%q) accepted, want reject", bad)
		}
	}
	if FormatTraceparent(TraceContext{}) != "" {
		t.Error("invalid context should format to empty string")
	}
}

func TestRemoteParentJoinsTrace(t *testing.T) {
	tel := New(Options{Seed: 5, Clock: fakeClock(time.Millisecond)})
	remote := TraceContext{TraceID: strings.Repeat("ab", 16), SpanID: 77}
	ctx := WithRemoteParent(WithTelemetry(context.Background(), tel), remote)

	sctx, root := StartSpan(ctx, "serve.guidance")
	_, child := StartSpan(sctx, "relaxation")
	child.End()
	root.End()

	if root.TraceID() != remote.TraceID {
		t.Errorf("root trace %q, want remote trace %q", root.TraceID(), remote.TraceID)
	}
	evs := tel.Recorder().Snapshot()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[1].Parent != remote.SpanID {
		t.Errorf("root parent %d, want remote span %d", evs[1].Parent, remote.SpanID)
	}
	if evs[0].Trace != remote.TraceID || evs[1].Trace != remote.TraceID {
		t.Errorf("span traces %q/%q, want inherited %q", evs[0].Trace, evs[1].Trace, remote.TraceID)
	}
}

func TestInjectTraceparent(t *testing.T) {
	tel := New(Options{Seed: 9, Clock: fakeClock(time.Millisecond)})
	ctx := WithTelemetry(context.Background(), tel)
	h := http.Header{}
	InjectTraceparent(ctx, h) // no active span
	if got := h.Get(HeaderTraceparent); got != "" {
		t.Fatalf("no-span inject wrote %q", got)
	}
	sctx, span := StartSpan(ctx, "cluster.attempt")
	InjectTraceparent(sctx, h)
	wire := h.Get(HeaderTraceparent)
	tc, ok := ParseTraceparent(wire)
	if !ok {
		t.Fatalf("injected %q does not parse", wire)
	}
	if tc.TraceID != span.TraceID() || tc.SpanID != span.ID() {
		t.Errorf("injected %+v, want trace %q span %d", tc, span.TraceID(), span.ID())
	}
	span.End()
}

func TestSpanCollectorExport(t *testing.T) {
	tel := New(Options{Seed: 3, Clock: fakeClock(time.Millisecond)})
	col := NewSpanCollector(2)
	ctx := WithTelemetry(context.Background(), tel)
	ctx = WithRequestID(ctx, "req-42")
	ctx = WithSpanCollector(ctx, col)

	sctx, root := StartSpan(ctx, "serve.guidance")
	_, child := StartSpan(sctx, "relaxation")
	child.End()
	root.End()
	_, extra := StartSpan(ctx, "overflow")
	extra.End()

	sums := col.Summaries()
	if len(sums) != 2 || col.Dropped() != 1 {
		t.Fatalf("collected %d dropped %d, want 2/1", len(sums), col.Dropped())
	}
	// Completion order: child first, then root.
	if sums[0].Name != "relaxation" || sums[0].Parent != root.ID() {
		t.Errorf("child summary %+v, want parent %d", sums[0], root.ID())
	}
	if sums[0].RequestID != "req-42" || sums[1].RequestID != "req-42" {
		t.Errorf("summaries lost the request id: %+v", sums)
	}
	if sums[0].Trace != root.TraceID() {
		t.Errorf("summary trace %q, want %q", sums[0].Trace, root.TraceID())
	}

	wire := col.EncodeJSON()
	back, err := DecodeSpanSummaries(wire)
	if err != nil || len(back) != 2 || back[0] != sums[0] {
		t.Fatalf("trailer round trip: %v %+v", err, back)
	}
	if empty := NewSpanCollector(4).EncodeJSON(); empty != "" {
		t.Errorf("empty collector encodes %q, want empty", empty)
	}
}

// TestImportSpansRemap pins the cross-process merge semantics: same-seed
// processes draw identical span-ID streams, so imported IDs must be remapped
// into a per-process namespace (bijectively, preserving in-batch parent
// edges), while a parent outside the batch — the traceparent edge — stays
// untouched and gains the clock-offset annotation.
func TestImportSpansRemap(t *testing.T) {
	tel := New(Options{Seed: 1, Clock: fakeClock(time.Millisecond)})
	ctx := WithTelemetry(context.Background(), tel)
	// Same-seed replica: its first span draws the same ID as this local one.
	_, local := StartSpan(ctx, "local.twin")
	local.End()
	_, attempt := StartSpan(ctx, "cluster.attempt")
	attempt.End()

	sums := []SpanSummary{
		{ID: local.ID(), Parent: 0xfeed, Name: "remote.child", Trace: attempt.TraceID(), StartUnixUS: 1000, DurUS: 5},
		{ID: 0xfeed, Parent: attempt.ID(), Name: "remote.root", Trace: attempt.TraceID(), StartUnixUS: 900, DurUS: 200, RequestID: "req-7"},
	}
	const offsetUS = 250
	if n := tel.ImportSpans(sums, "http://replica-1", offsetUS); n != 2 {
		t.Fatalf("imported %d, want 2", n)
	}

	evs := tel.Recorder().Snapshot()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	childEv, rootEv := evs[2], evs[3]
	if childEv.ID == local.ID() {
		t.Error("imported span kept a colliding local ID — remap missing")
	}
	if childEv.Parent != rootEv.ID {
		t.Errorf("in-batch parent edge broken: child parent %d, root id %d", childEv.Parent, rootEv.ID)
	}
	if rootEv.Parent != attempt.ID() {
		t.Errorf("cross-process edge: root parent %d, want local span %d", rootEv.Parent, attempt.ID())
	}
	if rootEv.Args.Get("clock_offset_us") != int64(offsetUS) {
		t.Errorf("boundary span args %v, want clock_offset_us=%d", rootEv.Args, offsetUS)
	}
	if rootEv.Args.Get("request_id") != "req-7" {
		t.Errorf("boundary span args %v, want request_id", rootEv.Args)
	}
	if childEv.Proc != "http://replica-1" || rootEv.Proc != "http://replica-1" {
		t.Errorf("imported proc %q/%q", childEv.Proc, rootEv.Proc)
	}
	// Timestamps are rebased: sender clock minus offset minus importer epoch.
	if want := int64(900) - offsetUS - tel.epochUnixUS; rootEv.TSUS != want {
		t.Errorf("root ts %d, want %d", rootEv.TSUS, want)
	}
}

func TestStageBreakdownTimingHeader(t *testing.T) {
	var b StageBreakdown
	if b.TimingHeader() != "" {
		t.Error("empty breakdown should render empty header")
	}
	b.Add(StageQueue, 312*time.Microsecond)
	b.Add(StageRelax, 120*time.Millisecond+504*time.Microsecond)
	b.Add(StageRelax, 0)            // dropped
	b.Add(StageScore, -time.Second) // dropped
	b.Add(StageID(99), time.Second) // dropped
	b.Add(StageID(-1), time.Second) // dropped
	got := b.TimingHeader()
	want := "queue;dur=0.312, relax;dur=120.504"
	if got != want {
		t.Errorf("TimingHeader() = %q, want %q", got, want)
	}
	if b.Get(StageRelax) != 120*time.Millisecond+504*time.Microsecond {
		t.Errorf("Get(relax) = %v", b.Get(StageRelax))
	}
	var nb *StageBreakdown
	nb.Add(StageQueue, time.Second) // nil no-op
	if nb.TimingHeader() != "" || nb.Get(StageQueue) != 0 {
		t.Error("nil breakdown must be inert")
	}
}

func TestStageMetricsSlowestExemplar(t *testing.T) {
	reg := NewRegistry()
	m := NewStageMetrics(reg, "test")
	var fast, slow StageBreakdown
	fast.Add(StageRelax, 10*time.Millisecond)
	slow.Add(StageRelax, 300*time.Millisecond)
	m.Record(&fast, "req-fast")
	m.Record(&slow, "req-slow")
	m.Record(nil, "ignored")

	snap := reg.Snapshot()
	v, ok := snap["test_stage_relax_seconds"].(HistView)
	if !ok {
		t.Fatalf("registry snapshot %v missing the relax stage histogram", snap)
	}
	if v.Count != 2 || v.SlowestID != "req-slow" {
		t.Errorf("relax view count=%d slowest=%q, want 2/req-slow", v.Count, v.SlowestID)
	}
	if v.SlowestMS < 299 || v.SlowestMS > 301 {
		t.Errorf("slowest_ms = %v, want ~300", v.SlowestMS)
	}
	if q := snap["test_stage_queue_seconds"].(HistView); q.Count != 0 {
		t.Errorf("untouched queue stage has %d observations, want 0", q.Count)
	}
}

func TestSLOBurnRates(t *testing.T) {
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { return now }
	s := NewSLO(SLOConfig{
		LatencyTarget: 100 * time.Millisecond,
		Availability:  0.999,
		Clock:         clock,
	})
	if s == nil {
		t.Fatal("engine should be enabled")
	}
	// 1000 requests: 100 availability errors (10% error rate = 100x burn),
	// 50 slow successes (5% slow rate = 50x burn).
	for i := 0; i < 1000; i++ {
		switch {
		case i < 100:
			s.Record(10*time.Millisecond, false)
		case i < 150:
			s.Record(200*time.Millisecond, true)
		default:
			s.Record(10*time.Millisecond, true)
		}
		now = now.Add(time.Millisecond)
	}
	r := s.Report()
	if !r.Enabled || r.Fast.Total != 1000 || r.Slow.Total != 1000 {
		t.Fatalf("report %+v", r)
	}
	approx := func(got, want float64) bool { return got > want*0.99 && got < want*1.01 }
	if !approx(r.Fast.AvailabilityBurn, 100) || !approx(r.Slow.AvailabilityBurn, 100) {
		t.Errorf("availability burn fast=%v slow=%v, want ~100", r.Fast.AvailabilityBurn, r.Slow.AvailabilityBurn)
	}
	if !approx(r.Fast.LatencyBurn, 50) || !approx(r.Slow.LatencyBurn, 50) {
		t.Errorf("latency burn fast=%v slow=%v, want ~50", r.Fast.LatencyBurn, r.Slow.LatencyBurn)
	}
	if !r.PageAvailability || !r.PageLatency {
		t.Error("both windows over 14.4x should page")
	}

	// 10 minutes of clean traffic: the fast window recovers, the slow window
	// still remembers the incident — multi-window paging goes quiet.
	for i := 0; i < 1000; i++ {
		s.Record(time.Millisecond, true)
		now = now.Add(600 * time.Millisecond)
	}
	r = s.Report()
	if r.Fast.AvailabilityBurn >= DefaultPageBurnRate {
		t.Errorf("fast burn %v should have recovered", r.Fast.AvailabilityBurn)
	}
	if r.Slow.Errors == 0 {
		t.Error("slow window should still hold the incident")
	}
	if r.PageAvailability {
		t.Error("recovered fast window must stop paging")
	}

	// Idle past the slow window: everything resets.
	now = now.Add(2 * time.Hour)
	s.Record(time.Millisecond, true)
	r = s.Report()
	if r.Slow.Errors != 0 || r.Slow.Total != 1 {
		t.Errorf("after idle reset: %+v", r.Slow)
	}
}

func TestSLODisabled(t *testing.T) {
	if s := NewSLO(SLOConfig{}); s != nil {
		t.Fatal("no objectives should build a nil engine")
	}
	var s *SLO
	s.Record(time.Second, false) // must not panic
	if r := s.Report(); r.Enabled {
		t.Error("nil engine reports enabled")
	}
	if err := s.WritePrometheus(discard{}, "x"); err != nil {
		t.Errorf("nil WritePrometheus: %v", err)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
