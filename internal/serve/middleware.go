package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"analogfold/internal/fault"
	"analogfold/internal/obs"
)

// HeaderRequestID is the wire header carrying the end-to-end request ID. The
// cluster coordinator mints it, replicas echo it, and it lands on slog
// records and span args at every layer, so a hedged or failed-over request
// can be traced across every replica that touched it.
const HeaderRequestID = "X-Request-ID"

// HeaderTiming is the per-request latency attribution header: the non-zero
// stages of the request's StageBreakdown in Server-Timing syntax
// ("queue;dur=0.312, relax;dur=120.504, ..."), set just before the first
// body byte.
const HeaderTiming = "X-Analogfold-Timing"

// TrailerSpans and TrailerClock are the cross-process span-export trailers a
// replica attaches to a traced response: the compact span summaries of the
// request's subtree, and the replica's wall clock (unix microseconds) at
// response completion so the coordinator can estimate the clock offset. They
// are trailers, not headers, because spans end only after the body is
// written.
const (
	TrailerSpans = "X-Analogfold-Spans"
	TrailerClock = "X-Analogfold-Span-Clock"
)

// obsWriter is the front's status-recording writer: it remembers the final
// status (the SLO and the coordinator's shed count read it) and, when stages
// is set, renders the timing header at the first write.
type obsWriter struct {
	http.ResponseWriter
	stages *obs.StageBreakdown
	status int
}

func (w *obsWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
		if h := w.stages.TimingHeader(); h != "" {
			w.Header().Set(HeaderTiming, h)
		}
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *obsWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

// Front is the request front both tiers put before every work endpoint: the
// daemon's /v1/guidance, /v1/route and /v1/dataset/shard and the
// coordinator's /v1/guidance, /v1/route and /v1/dataset. It adopts the
// caller's X-Request-ID (the coordinator, a load balancer, a curious curl) or
// mints one, echoes it before any body byte, and threads it and the telemetry
// sink down the context chain where spans and logs pick them up. A caller's
// traceparent makes the request's root span a child of the caller's span
// (DESIGN.md §16). Then it refuses anything but POST (405 with Allow) and
// decodes at most 1 MiB of JSON body, answering a malformed one with a typed
// invalid-input 400.
type Front struct {
	Telemetry *obs.Telemetry
	// Stages, when set and telemetry is on, gives each request a stage
	// breakdown on its context and aggregates it once the handler returned.
	Stages *obs.StageMetrics
	// SLO, when set, records every request's latency and availability (any
	// status below 500 counts as available), refused requests included.
	SLO *obs.SLO
	// Export makes this process the timing and span source for its caller:
	// the stage breakdown is rendered into X-Analogfold-Timing at the first
	// write and, for a traced caller, this process's span summaries go back
	// in the response trailers. The daemon exports; the coordinator composes
	// its timing from the winning replica's and exports nothing.
	Export bool
}

// maxRequestBytes bounds the request body a work endpoint reads.
const maxRequestBytes = 1 << 20

// Serve runs one request through the front and, when it is a POST whose body
// decodes into into, calls work with the front's status-recording writer,
// the request under the front's context and the raw body. It returns the
// final status.
func (f *Front) Serve(w http.ResponseWriter, r *http.Request, into any, work func(http.ResponseWriter, *http.Request, []byte)) int {
	id := r.Header.Get(HeaderRequestID)
	if id == "" {
		id = obs.NewRequestID()
	}
	w.Header().Set(HeaderRequestID, id)
	ctx := obs.WithTelemetry(obs.WithRequestID(r.Context(), id), f.Telemetry)
	tc, traced := obs.ParseTraceparent(r.Header.Get(obs.HeaderTraceparent))
	if traced {
		ctx = obs.WithRemoteParent(ctx, tc)
	}
	var (
		stages *obs.StageBreakdown
		col    *obs.SpanCollector
	)
	if f.Telemetry.Enabled() {
		if f.Stages != nil {
			stages = &obs.StageBreakdown{}
			ctx = obs.WithStages(ctx, stages)
		}
		if traced && f.Export {
			col = obs.NewSpanCollector(obs.MaxExportSpans)
			ctx = obs.WithSpanCollector(ctx, col)
			w.Header().Set("Trailer", TrailerSpans+", "+TrailerClock)
		}
	}
	ow := &obsWriter{ResponseWriter: w}
	if f.Export {
		ow.stages = stages
	}

	start := time.Now()
	r = r.WithContext(ctx)
	if r.Method != http.MethodPost {
		ow.Header().Set("Allow", http.MethodPost)
		RespondJSON(ow, http.StatusMethodNotAllowed, ErrorBody{Error: ErrorDetail{
			Kind: "method not allowed", Msg: "use POST"}})
	} else if body, err := decodeBody(r.Body, into); err != nil {
		RespondError(ow, fault.Wrap(fault.StageServe, fault.ErrInvalidInput, err, "decode request"), 0)
	} else {
		work(ow, r, body)
	}
	if ow.status == 0 {
		ow.status = http.StatusOK
	}
	if col != nil {
		// The handler (and its deferred span Ends) has returned: the request
		// subtree is complete. Announced trailer values set now are flushed
		// by net/http when the handler returns.
		if spans := col.EncodeJSON(); spans != "" {
			w.Header().Set(TrailerSpans, spans)
		}
		w.Header().Set(TrailerClock, obs.Itoa(time.Now().UnixMicro()))
	}
	f.SLO.Record(time.Since(start), ow.status < http.StatusInternalServerError)
	f.Stages.Record(stages, id)
	return ow.status
}

// decodeBody reads at most maxRequestBytes of body and decodes it as JSON
// into into. A longer body is cut off, so it fails to decode.
func decodeBody(body io.Reader, into any) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(body, maxRequestBytes))
	if err == nil {
		err = json.Unmarshal(b, into)
	}
	return b, err
}

// recoverPanic, deferred by a daemon work handler, converts a panic into a
// typed fault.ErrPanic response instead of letting net/http kill the
// connection (or, for a panic outside a request goroutine, the process). The
// daemon must survive any single bad request; the panic value and request
// path are preserved in the fault message for the operator.
func (s *Server) recoverPanic(w http.ResponseWriter, r *http.Request) {
	v := recover()
	if v == nil {
		return
	}
	s.met.panics.Inc()
	err := fault.New(fault.StageServe, fault.ErrPanic, "%s %s: %v", r.Method, r.URL.Path, v)
	if rid := obs.RequestID(r.Context()); rid != "" {
		s.logf("panic recovered [request_id %s]: %v", rid, err)
	} else {
		s.logf("panic recovered: %v", err)
	}
	RespondError(w, err, 0)
}

// logCtx writes one structured record through the configured slog.Logger,
// attaching the context's request ID so log lines from a proxied request
// correlate with coordinator-side records.
func (s *Server) logCtx(ctx context.Context, msg string, kv ...any) {
	if s.cfg.Logger == nil {
		return
	}
	if rid := obs.RequestID(ctx); rid != "" {
		kv = append(kv, "request_id", rid)
	}
	s.cfg.Logger.Info(msg, kv...)
}

// logf writes to the server's logger when one is configured.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info(fmt.Sprintf(format, args...))
	}
}
