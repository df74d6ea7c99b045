package obs

import (
	"context"
	"encoding/json"
	"sync"
)

// Cross-process span export. A replica answering a traced request collects
// compact summaries of the spans it recorded for that request and returns
// them in an HTTP response trailer; the coordinator imports them into its own
// flight recorder — remapping IDs into a per-process namespace and rebasing
// timestamps by the measured clock offset — so /debug/flight renders ONE
// merged Chrome trace across processes (DESIGN.md §16).

// MaxExportSpans bounds how many span summaries one request exports in its
// trailer; later spans are dropped and counted.
const MaxExportSpans = 64

// SpanSummary is the compact wire form of one completed span. Field names are
// deliberately terse: summaries ride in a response trailer on every traced
// hop.
type SpanSummary struct {
	ID          uint64 `json:"id"`
	Parent      uint64 `json:"par,omitempty"`
	Name        string `json:"n"`
	Trace       string `json:"tr,omitempty"`
	StartUnixUS int64  `json:"ts"` // wall-clock start, unix microseconds, sender's clock
	DurUS       int64  `json:"d"`
	RequestID   string `json:"rid,omitempty"`
}

// SpanCollector accumulates the summaries of spans completed under one
// request's context. Spans capture the collector pointer at StartSpan and
// append themselves in End, so background goroutines that inherited the
// request context keep feeding the same collector.
type SpanCollector struct {
	mu      sync.Mutex
	limit   int
	spans   []SpanSummary
	dropped int
}

// NewSpanCollector builds a collector holding at most limit summaries.
func NewSpanCollector(limit int) *SpanCollector {
	if limit <= 0 {
		limit = MaxExportSpans
	}
	return &SpanCollector{limit: limit}
}

// add appends one summary, dropping past the limit. Safe on nil.
func (c *SpanCollector) add(s SpanSummary) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if len(c.spans) < c.limit {
		c.spans = append(c.spans, s)
	} else {
		c.dropped++
	}
	c.mu.Unlock()
}

// Summaries returns a copy of the collected spans.
func (c *SpanCollector) Summaries() []SpanSummary {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SpanSummary, len(c.spans))
	copy(out, c.spans)
	return out
}

// Dropped reports how many spans exceeded the export limit.
func (c *SpanCollector) Dropped() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// EncodeJSON renders the collected summaries as a single-line JSON array for
// a response trailer ("" when nothing was collected).
func (c *SpanCollector) EncodeJSON() string {
	sums := c.Summaries()
	if len(sums) == 0 {
		return ""
	}
	b, err := json.Marshal(sums)
	if err != nil {
		return ""
	}
	return string(b)
}

// DecodeSpanSummaries parses the trailer form back into summaries.
func DecodeSpanSummaries(s string) ([]SpanSummary, error) {
	if s == "" {
		return nil, nil
	}
	var out []SpanSummary
	if err := json.Unmarshal([]byte(s), &out); err != nil {
		return nil, err
	}
	return out, nil
}

// colKey carries the collector on the context chain.
type colKey struct{}

// WithSpanCollector attaches a collector; spans started under ctx (and their
// descendants) append their summaries to it on End.
func WithSpanCollector(ctx context.Context, c *SpanCollector) context.Context {
	if c == nil {
		return ctx
	}
	return context.WithValue(ctx, colKey{}, c)
}

// SpanCollectorFrom returns the context's collector, or nil.
func SpanCollectorFrom(ctx context.Context) *SpanCollector {
	if ctx == nil {
		return nil
	}
	c, _ := ctx.Value(colKey{}).(*SpanCollector)
	return c
}

// ImportSpans merges span summaries received from another process into this
// sink's flight recorder and returns how many were recorded.
//
// Two processes seeded with the same experiment seed draw identical span-ID
// streams, so imported IDs are remapped into a per-process namespace with
// Mix64(id ^ FNV64a(proc)) — a bijection, so parent/child edges inside the
// batch survive. A parent that is NOT in the batch is left untouched: it
// refers to a span of the importing process (the traceparent edge the remote
// root was parented under), which is exactly what stitches the remote subtree
// into the local tree.
//
// offsetUS is the sender's clock minus the importer's clock at receive time;
// timestamps are rebased into the importer's epoch and the offset is
// annotated on imported roots so trace readers know the skew bound.
func (t *Telemetry) ImportSpans(sums []SpanSummary, proc string, offsetUS int64) int {
	if t == nil || len(sums) == 0 {
		return 0
	}
	ph := FNV64aString(proc)
	local := make(map[uint64]bool, len(sums))
	for _, s := range sums {
		local[s.ID] = true
	}
	n := 0
	for _, s := range sums {
		e := FlightEvent{
			ID:    Mix64(s.ID ^ ph),
			Track: 1,
			Name:  s.Name,
			Phase: PhaseSpan,
			TSUS:  s.StartUnixUS - offsetUS - t.epochUnixUS,
			DurUS: s.DurUS,
			Trace: s.Trace,
			Proc:  proc,
		}
		if local[s.Parent] {
			e.Parent = Mix64(s.Parent ^ ph)
		} else {
			// Cross-process edge: the parent lives in the importer's own
			// recorder. Annotate the clock offset on this boundary span.
			e.Parent = s.Parent
			e.Args = &Args{{"clock_offset_us", offsetUS}}
		}
		if s.RequestID != "" {
			e.Args = e.Args.with("request_id", s.RequestID)
		}
		t.rec.Record(e)
		n++
	}
	return n
}
