package serve

import (
	"encoding/json"
	"runtime"
	"runtime/debug"

	"analogfold/internal/obs"
)

// metrics holds the daemon's registry-backed instruments. The handles are
// resolved once at construction — hot handlers touch only atomics — and the
// registry is rendered both as the /metrics JSON object and as Prometheus
// text exposition.
type metrics struct {
	panics   *obs.Counter
	degraded *obs.Counter // responses produced below the elite rung
	guidance *obs.Histogram
	route    *obs.Histogram
	relax    *obs.Histogram

	// Micro-batching instruments: one wave == one shared PredictBatch call
	// (the serving-throughput bench pins waves against the relax-side
	// score-waves counter). batchSize buckets wave membership with the
	// 1ms == 1 member convention of the duration-bucketed histogram.
	batchWaves      *obs.Counter
	batchCandidates *obs.Counter
	batchSize       *obs.Histogram

	// Dataset-shard instruments: the /v1/dataset/shard labeling endpoint the
	// cluster coordinator leases distributed generation work through.
	shard         *obs.Histogram
	shardRequests *obs.Counter
	shardEntries  *obs.Counter
	shardDropped  *obs.Counter
}

func newMetrics(reg *obs.Registry) metrics {
	reg.SetHelp("analogfold_serve_panics_total", "handler panics recovered by the containment middleware")
	reg.SetHelp("analogfold_serve_degraded_total", "responses served below the elite guidance rung")
	reg.SetHelp("analogfold_serve_guidance_seconds", "/v1/guidance handler time after admission")
	reg.SetHelp("analogfold_serve_route_seconds", "/v1/route handler time after admission")
	reg.SetHelp("analogfold_serve_relax_seconds", "guide-generation stage time inside /v1/route")
	reg.SetHelp("analogfold_serve_batch_waves_total", "guidance micro-batch waves scored (one PredictBatch call each)")
	reg.SetHelp("analogfold_serve_batch_candidates_total", "candidate guidance sets scored through batched waves")
	reg.SetHelp("analogfold_serve_batch_size", "members per scored wave (le_Nms bucket == N members, mean_ms == mean size)")
	reg.SetHelp("analogfold_serve_dataset_shard_seconds", "/v1/dataset/shard handler time after admission")
	reg.SetHelp("analogfold_serve_dataset_shards_total", "dataset shards labeled successfully")
	reg.SetHelp("analogfold_serve_dataset_entries_total", "dataset samples labeled across served shards")
	reg.SetHelp("analogfold_serve_dataset_dropped_total", "dataset samples dropped (failed or non-finite labels) across served shards")
	return metrics{
		panics:          reg.Counter("analogfold_serve_panics_total"),
		degraded:        reg.Counter("analogfold_serve_degraded_total"),
		guidance:        reg.Histogram("analogfold_serve_guidance_seconds"),
		route:           reg.Histogram("analogfold_serve_route_seconds"),
		relax:           reg.Histogram("analogfold_serve_relax_seconds"),
		batchWaves:      reg.Counter("analogfold_serve_batch_waves_total"),
		batchCandidates: reg.Counter("analogfold_serve_batch_candidates_total"),
		batchSize:       reg.Histogram("analogfold_serve_batch_size"),
		shard:           reg.Histogram("analogfold_serve_dataset_shard_seconds"),
		shardRequests:   reg.Counter("analogfold_serve_dataset_shards_total"),
		shardEntries:    reg.Counter("analogfold_serve_dataset_entries_total"),
		shardDropped:    reg.Counter("analogfold_serve_dataset_dropped_total"),
	}
}

// The series the cluster prober grades a replica by. ParseHealth reads them
// back from a /metrics body.
const (
	MetricQueueDepth   = "analogfold_serve_queue_depth"
	MetricBreakerState = "analogfold_serve_breaker_state"
)

// Health is one daemon's load and model health as its /metrics body reports
// them: the admission queue depth and the breaker-state gauge.
type Health struct {
	QueueDepth int64
	Breaker    int32 // 0 closed, 1 half-open, 2 open
}

// BreakerOpen reports whether the breaker was open at the scrape.
func (h Health) BreakerOpen() bool { return h.Breaker == int32(breakerOpen) }

// ParseHealth decodes the two health series from a /metrics JSON body. It
// reports false for malformed JSON, a missing or null series, or a value
// that is not an integer in the series' range.
func ParseHealth(body []byte) (Health, bool) {
	var m map[string]json.RawMessage
	if json.Unmarshal(body, &m) != nil {
		return Health{}, false
	}
	var depth, state *int64
	if json.Unmarshal(m[MetricQueueDepth], &depth) != nil || json.Unmarshal(m[MetricBreakerState], &state) != nil ||
		depth == nil || state == nil || *depth < 0 ||
		*state < int64(breakerClosed) || *state > int64(breakerOpen) {
		return Health{}, false
	}
	return Health{QueueDepth: *depth, Breaker: int32(*state)}, true
}

// registerOwnerMetrics exports the admission and breaker state — which lives
// with its owners — as scrape-time registry callbacks, plus the build-info
// gauge, so the registry covers everything without duplicating any state.
func (s *Server) registerOwnerMetrics(reg *obs.Registry) {
	reg.RegisterGaugeFunc(MetricQueueDepth, func() float64 { return float64(s.adm.waiting.Load()) })
	reg.RegisterGaugeFunc("analogfold_serve_in_flight", func() float64 { return float64(s.adm.inflight.Load()) })
	reg.RegisterCounterFunc("analogfold_serve_accepted_total", func() float64 { return float64(s.adm.accepted.Load()) })
	reg.RegisterCounterFunc("analogfold_serve_shed_total", func() float64 { return float64(s.adm.shed.Load()) })
	reg.RegisterGaugeFunc(MetricBreakerState, func() float64 {
		state, _, _ := s.brk.snapshot()
		return float64(state)
	})
	reg.SetHelp(MetricBreakerState, "circuit breaker state: 0 closed, 1 half-open, 2 open")
	reg.RegisterGaugeFunc("analogfold_serve_breaker_consecutive_faults", func() float64 {
		_, consecutive, _ := s.brk.snapshot()
		return float64(consecutive)
	})
	reg.RegisterCounterFunc("analogfold_serve_breaker_trips_total", func() float64 {
		_, _, trips := s.brk.snapshot()
		return float64(trips)
	})
	if s.cache != nil {
		reg.SetHelp("analogfold_serve_cache_hits_total", "result-cache hits (stored body replayed, model untouched)")
		reg.SetHelp("analogfold_serve_cache_misses_total", "result-cache misses (request executed the flow)")
		reg.SetHelp("analogfold_serve_cache_evictions_total", "result-cache LRU evictions")
		reg.SetHelp("analogfold_serve_cache_collapses_total", "singleflight collapses onto identical in-flight work")
		reg.SetHelp("analogfold_serve_cache_entries", "stored result bodies")
		reg.RegisterCounterFunc("analogfold_serve_cache_hits_total", func() float64 { return float64(s.cache.Stats().Hits) })
		reg.RegisterCounterFunc("analogfold_serve_cache_misses_total", func() float64 { return float64(s.cache.Stats().Misses) })
		reg.RegisterCounterFunc("analogfold_serve_cache_evictions_total", func() float64 { return float64(s.cache.Stats().Evictions) })
		reg.RegisterCounterFunc("analogfold_serve_cache_collapses_total", func() float64 { return float64(s.cache.Stats().Collapses) })
		reg.RegisterGaugeFunc("analogfold_serve_cache_entries", func() float64 { return float64(s.cache.Len()) })
	}
	reg.RegisterInfo("analogfold_build_info", buildInfo())
}

// buildInfo reads the binary's identity from the embedded build metadata as
// the labels of the analogfold_build_info gauge.
func buildInfo() map[string]string {
	b := map[string]string{"goversion": runtime.Version(), "path": "", "version": "", "revision": ""}
	if bi, ok := debug.ReadBuildInfo(); ok {
		b["path"] = bi.Main.Path
		b["version"] = bi.Main.Version
		for _, st := range bi.Settings {
			if st.Key == "vcs.revision" {
				b["revision"] = st.Value
			}
		}
	}
	return b
}
