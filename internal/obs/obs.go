// Package obs is the unified telemetry layer of the guidance→route pipeline:
// hierarchical spans carried on the context chain, a typed metrics registry
// (counters, gauges, power-of-two histograms), a bounded in-memory flight
// recorder, Chrome trace_event export, and slog plumbing shared by the CLI
// and the daemon. It depends only on the standard library.
//
// Design constraints (DESIGN.md §11):
//
//   - Free when disabled. A context without a Telemetry yields nil handles,
//     and every method is safe — and allocation-free — on a nil receiver, so
//     instrumented hot loops pay one pointer test when telemetry is off.
//   - Deterministic-safe. Telemetry only observes: it never feeds back into
//     the pipeline, so routing and guidance outputs are bit-identical with
//     telemetry on or off and for any worker count. Span IDs come from a
//     splitmix64 stream over the experiment seed and timestamps from an
//     injectable clock, so the telemetry itself is reproducible in tests.
//   - Cheap when enabled. Hot loops record at natural serial barriers
//     (negotiation iterations, relaxation rounds, training epochs), never
//     inside the A* inner loop, and high-frequency series are sampled with
//     the SampleEvery stride.
package obs

import (
	"context"
	"io"
	"log/slog"
	"sync/atomic"
	"time"
)

// Clock is the injectable time source. The default is time.Now; tests pin a
// fake clock so span durations and trace output are exact.
type Clock func() time.Time

// Options configures New. The zero value is usable: wall clock, seed 0, an
// 8192-event flight recorder, sampling stride 8, a fresh registry.
type Options struct {
	// Seed feeds the splitmix64 span-ID stream (use the experiment seed so a
	// run's IDs are reproducible).
	Seed int64
	// Clock overrides the time source (default time.Now).
	Clock Clock
	// FlightCapacity bounds the flight-recorder ring (default 8192 events).
	FlightCapacity int
	// SampleEvery is the stride of high-frequency hooks such as the
	// relaxation potential trajectory: every SampleEvery-th observation is
	// kept (default 8; 1 keeps everything).
	SampleEvery int
	// Registry supplies a shared metrics registry (default: a fresh one).
	Registry *Registry
	// Logger attaches a structured logger reachable via Telemetry.Logger.
	Logger *slog.Logger
}

// Telemetry is one run's telemetry sink: span factory, flight recorder,
// metrics registry and logger. A nil *Telemetry is the disabled sink — every
// method no-ops — which is how instrumented code runs at zero cost without
// telemetry in its context.
type Telemetry struct {
	clock       Clock
	epoch       time.Time
	epochUnixUS int64
	seed        int64
	idCounter   atomic.Uint64
	trackCount  atomic.Uint64
	sampleEvery int
	rec         *FlightRecorder
	reg         *Registry
	logger      *slog.Logger
}

// New builds a telemetry sink.
func New(opts Options) *Telemetry {
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if opts.FlightCapacity <= 0 {
		opts.FlightCapacity = 8192
	}
	if opts.SampleEvery <= 0 {
		opts.SampleEvery = 8
	}
	if opts.Registry == nil {
		opts.Registry = NewRegistry()
	}
	epoch := opts.Clock()
	return &Telemetry{
		clock:       opts.Clock,
		epoch:       epoch,
		epochUnixUS: epoch.UnixMicro(),
		seed:        opts.Seed,
		sampleEvery: opts.SampleEvery,
		rec:         NewFlightRecorder(opts.FlightCapacity),
		reg:         opts.Registry,
		logger:      opts.Logger,
	}
}

// Enabled reports whether the sink records anything. It is the guard
// instrumented code uses before building event payloads, so a disabled run
// never allocates argument maps.
func (t *Telemetry) Enabled() bool { return t != nil }

// Registry returns the metrics registry (nil when disabled; registry handles
// are themselves nil-safe).
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Recorder returns the flight recorder (nil when disabled).
func (t *Telemetry) Recorder() *FlightRecorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// Logger returns the attached structured logger, or slog.Default when none
// (or no telemetry) is configured, so call sites can log unconditionally.
func (t *Telemetry) Logger() *slog.Logger {
	if t == nil || t.logger == nil {
		return slog.Default()
	}
	return t.logger
}

// SampleEvery returns the sampling stride for high-frequency series (1 when
// disabled, so guarded code dividing by it stays correct).
func (t *Telemetry) SampleEvery() int {
	if t == nil {
		return 1
	}
	return t.sampleEvery
}

// nowUS is the event timestamp: microseconds since the sink's epoch.
func (t *Telemetry) nowUS() int64 { return t.clock().Sub(t.epoch).Microseconds() }

// nextID draws the next span ID from the splitmix64 stream over the seed —
// the same finalizer the parallel layer uses for restart RNG seeds, so IDs
// are a pure function of (seed, creation index).
func (t *Telemetry) nextID() uint64 {
	z := uint64(t.seed) + 0x9e3779b97f4a7c15*t.idCounter.Add(1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// telKey and spanKey carry the sink and the active span on the context chain.
type telKey struct{}
type spanKey struct{}

// WithTelemetry attaches a sink to the context; the instrumented pipeline
// below picks it up with FromContext.
func WithTelemetry(ctx context.Context, t *Telemetry) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, telKey{}, t)
}

// FromContext returns the context's sink, or nil (the disabled sink).
func FromContext(ctx context.Context) *Telemetry {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(telKey{}).(*Telemetry)
	return t
}

// Span is one timed region of the pipeline. A nil *Span (no telemetry in the
// context) is inert: End and Arg are no-ops.
type Span struct {
	t       *Telemetry
	id      uint64
	parent  uint64
	track   uint64
	name    string
	traceID string
	rid     string
	tsUS    int64
	args    *Args
	col     *SpanCollector
}

// StartSpan opens a span named name under the context's active span and
// returns a derived context carrying it. Without telemetry it returns ctx
// unchanged and a nil span, allocating nothing.
//
// Trace identity: a child span inherits its parent's trace ID (and span
// collector). A root span joins the trace of a remote parent attached with
// WithRemoteParent — parenting itself under the remote span ID — or, absent
// one, mints a fresh trace ID from the deterministic ID stream.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	t := FromContext(ctx)
	if t == nil {
		return ctx, nil
	}
	s := &Span{t: t, id: t.nextID(), name: name, tsUS: t.nowUS()}
	if rid := RequestID(ctx); rid != "" {
		// A request-scoped span carries its request ID so hedged/failed-over
		// requests can be stitched back together across replica flight
		// recorders. Only paid when telemetry is enabled and an ID is present.
		s.rid = rid
		s.args = &Args{{"request_id", rid}}
	}
	if p, _ := ctx.Value(spanKey{}).(*Span); p != nil {
		s.parent = p.id
		s.track = p.track
		s.traceID = p.traceID
		s.col = p.col
	} else {
		// Root spans each get their own display track so concurrent method
		// runs render as separate rows in chrome://tracing.
		s.track = t.trackCount.Add(1)
		s.col = SpanCollectorFrom(ctx)
		if tc, ok := RemoteParent(ctx); ok {
			s.parent = tc.SpanID
			s.traceID = tc.TraceID
		} else {
			s.traceID = t.newTraceID()
		}
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// newTraceID mints a 32-hex trace ID from two draws of the deterministic
// span-ID stream.
func (t *Telemetry) newTraceID() string {
	buf := make([]byte, 0, 32)
	buf = appendHex16(buf, t.nextID())
	buf = appendHex16(buf, t.nextID())
	return string(buf)
}

// TraceID returns the span's 32-hex trace ID ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID
}

// ID returns the span's ID (0 on nil).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Arg attaches a key/value rendered into the span's trace args. Returns the
// span for chaining; safe on nil.
func (s *Span) Arg(key string, value any) *Span {
	if s == nil {
		return nil
	}
	s.args = s.args.with(key, value)
	return s
}

// End closes the span, records it in the flight recorder, and — when the
// originating request carries a span collector — appends a compact summary
// for cross-process export.
func (s *Span) End() {
	if s == nil {
		return
	}
	durUS := s.t.nowUS() - s.tsUS
	s.t.rec.Record(FlightEvent{
		ID: s.id, Parent: s.parent, Track: s.track, Name: s.name, Trace: s.traceID,
		Phase: PhaseSpan, TSUS: s.tsUS, DurUS: durUS, Args: s.args,
	})
	if s.col != nil {
		s.col.add(SpanSummary{
			ID: s.id, Parent: s.parent, Name: s.name, Trace: s.traceID,
			StartUnixUS: s.t.epochUnixUS + s.tsUS, DurUS: durUS, RequestID: s.rid,
		})
	}
}

// Event records an instant event under the context's active span, with args
// given as pairs with distinct keys in any order. The event keeps the args
// slice (sorted in place), so a caller must not reuse it. Callers on hot
// paths must guard with Telemetry.Enabled before building args, so the
// disabled path never allocates them.
func Event(ctx context.Context, name string, args ...Arg) {
	t := FromContext(ctx)
	if t == nil {
		return
	}
	var parent, track uint64
	var trace string
	if p, _ := ctx.Value(spanKey{}).(*Span); p != nil {
		parent, track, trace = p.id, p.track, p.traceID
	}
	t.rec.Record(FlightEvent{
		Parent: parent, Track: track, Name: name, Trace: trace,
		Phase: PhaseInstant, TSUS: t.nowUS(), Args: sortedArgs(args),
	})
}

// WriteTrace renders the flight recorder's current contents as Chrome
// trace_event JSON, loadable in chrome://tracing and Perfetto.
func (t *Telemetry) WriteTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, emptyTrace)
		return err
	}
	return WriteTraceEvents(w, t.rec.Snapshot())
}
