package obs

import (
	"context"
	"strconv"
	"sync/atomic"
	"time"
)

// Per-request latency attribution. Every served request carries a fixed-size
// stage breakdown on its context; the pipeline adds wall time to the stage it
// is in at natural barriers (admission, cache lookup, relaxation, routing,
// scoring, proxy hops). The breakdown is rendered into the
// X-Analogfold-Timing response header (Server-Timing style) and folded into
// per-stage histograms with slowest-exemplar capture, so "where did this
// request's 400ms go?" has a one-header answer and /metrics has the
// distribution (DESIGN.md §16).

// StageID names one fixed stage of the request lifecycle.
type StageID int

const (
	// StageQueue is admission-queue wait before the request starts executing.
	StageQueue StageID = iota
	// StageBatchWait is time parked in a micro-batch wave awaiting scoring.
	StageBatchWait
	// StageCache is result-cache lookup (hits and singleflight collapses).
	StageCache
	// StageRelax is potential relaxation (guidance derivation).
	StageRelax
	// StageRoute is negotiated A* routing.
	StageRoute
	// StageScore is candidate/guidance scoring (model forward passes).
	StageScore
	// StageProxy is coordinator-side proxy and hedge/failover overhead: total
	// coordinator handler time minus the winning replica attempt.
	StageProxy
	// NumStages sizes the fixed breakdown array.
	NumStages
)

var stageNames = [NumStages]string{
	"queue", "batch_wait", "cache", "relax", "route", "score", "proxy",
}

// StageName returns the wire name of a stage ("" for out-of-range IDs).
func StageName(id StageID) string {
	if id < 0 || id >= NumStages {
		return ""
	}
	return stageNames[id]
}

// StageBreakdown accumulates per-stage wall time for one request. Adds are
// atomic so concurrent contributors (wave scorers, hedged attempts) may share
// one breakdown. A nil breakdown (no attribution on this path) no-ops.
type StageBreakdown struct {
	us [NumStages]atomic.Int64
}

// Add contributes d to stage id. Safe on nil; negative and out-of-range
// contributions are dropped.
func (b *StageBreakdown) Add(id StageID, d time.Duration) {
	if b == nil || id < 0 || id >= NumStages || d <= 0 {
		return
	}
	b.us[id].Add(d.Microseconds())
}

// Get returns the accumulated time for stage id.
func (b *StageBreakdown) Get(id StageID) time.Duration {
	if b == nil || id < 0 || id >= NumStages {
		return 0
	}
	return time.Duration(b.us[id].Load()) * time.Microsecond
}

// TimingHeader renders the non-zero stages as a Server-Timing-style value:
//
//	queue;dur=0.312, relax;dur=120.504, route;dur=88.021
//
// Durations are milliseconds with microsecond precision. Returns "" when no
// stage recorded anything.
func (b *StageBreakdown) TimingHeader() string {
	if b == nil {
		return ""
	}
	var buf []byte
	for id := StageID(0); id < NumStages; id++ {
		us := b.us[id].Load()
		if us <= 0 {
			continue
		}
		if len(buf) > 0 {
			buf = append(buf, ", "...)
		}
		buf = append(buf, stageNames[id]...)
		buf = append(buf, ";dur="...)
		buf = strconv.AppendFloat(buf, float64(us)/1e3, 'f', 3, 64)
	}
	return string(buf)
}

// stageKey carries the breakdown on the context chain.
type stageKey struct{}

// WithStages attaches a breakdown to the context.
func WithStages(ctx context.Context, b *StageBreakdown) context.Context {
	if b == nil {
		return ctx
	}
	return context.WithValue(ctx, stageKey{}, b)
}

// StagesFrom returns the context's breakdown, or nil (inert).
func StagesFrom(ctx context.Context) *StageBreakdown {
	if ctx == nil {
		return nil
	}
	b, _ := ctx.Value(stageKey{}).(*StageBreakdown)
	return b
}

// StageMetrics is the registry-backed aggregation of stage breakdowns: one
// histogram per stage (with slowest-exemplar capture) named
// <prefix>_stage_<name>_seconds.
type StageMetrics struct {
	hists [NumStages]*Histogram
}

// NewStageMetrics registers the per-stage histograms under prefix. Nil-safe
// on a nil registry (returns an inert value).
func NewStageMetrics(reg *Registry, prefix string) *StageMetrics {
	m := &StageMetrics{}
	if reg == nil {
		return m
	}
	for id := StageID(0); id < NumStages; id++ {
		name := prefix + "_stage_" + stageNames[id] + "_seconds"
		m.hists[id] = reg.Histogram(name)
		reg.SetHelp(name, "Wall time attributed to the "+stageNames[id]+" stage per request.")
	}
	return m
}

// Record folds one request's breakdown into the histograms, tagging each
// observation with the request ID as a slowest-exemplar candidate. Stages the
// request never touched are skipped (no zero-inflation).
func (m *StageMetrics) Record(b *StageBreakdown, requestID string) {
	if m == nil || b == nil {
		return
	}
	for id := StageID(0); id < NumStages; id++ {
		if d := b.Get(id); d > 0 {
			m.hists[id].ObserveExemplar(d, requestID)
		}
	}
}
