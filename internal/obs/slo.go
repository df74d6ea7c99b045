package obs

import (
	"io"
	"strconv"
	"sync"
	"time"
)

// SLO engine: sliding-window service-level-objective tracking with
// multi-window burn rates (the Google SRE-workbook alerting shape). Each
// served request is recorded as (latency, success); the engine maintains a
// bucketed ring over the slow window and answers, for both a fast and a slow
// window, "at the current bad-request rate, how many times faster than
// sustainable is the error budget burning?" — burn rate 1.0 exhausts the
// budget exactly at the window horizon; paging alerts require BOTH windows
// above the threshold so a brief blip (fast window only) and a long-ago
// incident (slow window only) stay quiet (DESIGN.md §16).

// SLOFastWindow and SLOSlowWindow are the burn-rate evaluation horizons.
const (
	SLOFastWindow = 5 * time.Minute
	SLOSlowWindow = time.Hour
)

// DefaultPageBurnRate is the paging threshold: budget burning 14.4× too fast
// consumes ~2% of a 30-day budget in an hour.
const DefaultPageBurnRate = 14.4

// SLOConfig declares the objectives. Zero-valued objectives are disabled;
// NewSLO returns nil (the inert engine) when no objective is set.
type SLOConfig struct {
	// LatencyTarget is the per-request latency objective: a request slower
	// than this violates the latency SLI. Zero disables latency tracking.
	LatencyTarget time.Duration
	// Availability is the compliance target shared by both SLIs, e.g. 0.999
	// ("99.9% of requests succeed and meet latency"). The error budget is
	// 1 − Availability. Zero defaults to 0.999 when LatencyTarget is set.
	Availability float64
	// PageBurnRate overrides the paging threshold (default 14.4).
	PageBurnRate float64
	// Clock overrides the time source (tests pin it).
	Clock Clock
}

// sloBucket is one time slice of the sliding ring.
type sloBucket struct {
	total   int64
	errors  int64 // failed requests (5xx)
	slow    int64 // successful but over the latency target
	startUS int64 // bucket start, microseconds since engine start
}

// sloRingBuckets fixes the ring resolution: the slow window is divided into
// this many slices, so a 1h window advances in 60s steps.
const sloRingBuckets = 60

// sloBucketUS is one ring slice in microseconds.
const sloBucketUS = int64(SLOSlowWindow/time.Microsecond) / sloRingBuckets

// SLO is the burn-rate engine. A nil *SLO no-ops on every method, so serving
// paths record unconditionally.
type SLO struct {
	cfg   SLOConfig
	mu    sync.Mutex
	ring  [sloRingBuckets]sloBucket
	cur   int
	start time.Time
}

// NewSLO builds the engine, or returns nil when no objective is configured.
func NewSLO(cfg SLOConfig) *SLO {
	if cfg.LatencyTarget <= 0 && cfg.Availability <= 0 {
		return nil
	}
	if cfg.Availability <= 0 || cfg.Availability >= 1 {
		cfg.Availability = 0.999
	}
	if cfg.PageBurnRate <= 0 {
		cfg.PageBurnRate = DefaultPageBurnRate
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &SLO{cfg: cfg, start: cfg.Clock()}
}

// advance rotates the ring to the bucket covering now. Caller holds mu.
func (s *SLO) advance(nowUS int64) {
	want := nowUS / sloBucketUS
	have := s.ring[s.cur].startUS / sloBucketUS
	if want-have >= sloRingBuckets {
		// Idle longer than the slow window: every retained bucket is stale.
		s.ring = [sloRingBuckets]sloBucket{}
		s.cur = 0
		s.ring[0].startUS = want * sloBucketUS
		return
	}
	for have < want {
		have++
		s.cur = (s.cur + 1) % sloRingBuckets
		s.ring[s.cur] = sloBucket{startUS: have * sloBucketUS}
	}
}

// Record folds one request into the current bucket. success=false marks an
// availability error; a successful request slower than the latency target
// marks a latency violation.
func (s *SLO) Record(latency time.Duration, success bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advance(s.cfg.Clock().Sub(s.start).Microseconds())
	b := &s.ring[s.cur]
	b.total++
	if !success {
		b.errors++
	} else if s.cfg.LatencyTarget > 0 && latency > s.cfg.LatencyTarget {
		b.slow++
	}
}

// window sums the buckets covering the trailing duration d. Caller holds mu.
func (s *SLO) window(nowUS int64, d time.Duration) (total, errors, slow int64) {
	horizon := nowUS - d.Microseconds()
	for i := 0; i < sloRingBuckets; i++ {
		b := &s.ring[i]
		if b.total == 0 {
			continue
		}
		// A bucket contributes if any part of it overlaps the window.
		if b.startUS+sloBucketUS > horizon && b.startUS <= nowUS {
			total += b.total
			errors += b.errors
			slow += b.slow
		}
	}
	return
}

// SLOWindow is one evaluation window's burn-rate view.
type SLOWindow struct {
	Name             string  `json:"name"`
	Seconds          float64 `json:"seconds"`
	Total            int64   `json:"total"`
	Errors           int64   `json:"errors"`
	SlowRequests     int64   `json:"slow_requests"`
	ErrorRate        float64 `json:"error_rate"`
	SlowRate         float64 `json:"slow_rate"`
	AvailabilityBurn float64 `json:"availability_burn"`
	LatencyBurn      float64 `json:"latency_burn"`
}

// SLOReport is the /debug/slo JSON body.
type SLOReport struct {
	Enabled          bool      `json:"enabled"`
	LatencyTargetMS  float64   `json:"latency_target_ms,omitempty"`
	Availability     float64   `json:"availability,omitempty"`
	ErrorBudget      float64   `json:"error_budget,omitempty"`
	PageBurnRate     float64   `json:"page_burn_rate,omitempty"`
	Fast             SLOWindow `json:"fast,omitempty"`
	Slow             SLOWindow `json:"slow,omitempty"`
	PageAvailability bool      `json:"page_availability"`
	PageLatency      bool      `json:"page_latency"`
}

// Report evaluates both windows. Safe on nil (Enabled=false).
func (s *SLO) Report() SLOReport {
	if s == nil {
		return SLOReport{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	nowUS := s.cfg.Clock().Sub(s.start).Microseconds()
	s.advance(nowUS)
	budget := 1 - s.cfg.Availability
	r := SLOReport{
		Enabled:      true,
		Availability: s.cfg.Availability,
		ErrorBudget:  budget,
		PageBurnRate: s.cfg.PageBurnRate,
	}
	if s.cfg.LatencyTarget > 0 {
		r.LatencyTargetMS = float64(s.cfg.LatencyTarget.Microseconds()) / 1e3
	}
	eval := func(name string, d time.Duration) SLOWindow {
		total, errors, slow := s.window(nowUS, d)
		w := SLOWindow{Name: name, Seconds: d.Seconds(), Total: total, Errors: errors, SlowRequests: slow}
		if total > 0 {
			w.ErrorRate = float64(errors) / float64(total)
			w.SlowRate = float64(slow) / float64(total)
			if budget > 0 {
				w.AvailabilityBurn = w.ErrorRate / budget
				w.LatencyBurn = w.SlowRate / budget
			}
		}
		return w
	}
	r.Fast = eval("fast", SLOFastWindow)
	r.Slow = eval("slow", SLOSlowWindow)
	r.PageAvailability = r.Fast.AvailabilityBurn >= s.cfg.PageBurnRate &&
		r.Slow.AvailabilityBurn >= s.cfg.PageBurnRate
	r.PageLatency = s.cfg.LatencyTarget > 0 &&
		r.Fast.LatencyBurn >= s.cfg.PageBurnRate &&
		r.Slow.LatencyBurn >= s.cfg.PageBurnRate
	return r
}

// Register exports the burn rates as scrape-time gauges under prefix
// (<prefix>_slo_fast_availability_burn etc.).
func (s *SLO) Register(reg *Registry, prefix string) {
	if s == nil || reg == nil {
		return
	}
	type sel struct {
		name string
		get  func(SLOReport) float64
	}
	for _, g := range []sel{
		{prefix + "_slo_fast_availability_burn", func(r SLOReport) float64 { return r.Fast.AvailabilityBurn }},
		{prefix + "_slo_slow_availability_burn", func(r SLOReport) float64 { return r.Slow.AvailabilityBurn }},
		{prefix + "_slo_fast_latency_burn", func(r SLOReport) float64 { return r.Fast.LatencyBurn }},
		{prefix + "_slo_slow_latency_burn", func(r SLOReport) float64 { return r.Slow.LatencyBurn }},
		{prefix + "_slo_page_availability", func(r SLOReport) float64 { return b2f(r.PageAvailability) }},
		{prefix + "_slo_page_latency", func(r SLOReport) float64 { return b2f(r.PageLatency) }},
	} {
		get := g.get
		reg.RegisterGaugeFunc(g.name, func() float64 { return get(s.Report()) })
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// WritePrometheus renders the report as Prometheus text exposition — the
// /debug/slo?format=prom body. Safe on nil (writes nothing).
func (s *SLO) WritePrometheus(w io.Writer, prefix string) error {
	if s == nil {
		return nil
	}
	r := s.Report()
	var buf []byte
	emit := func(name string, v float64) {
		buf = append(buf, prefix...)
		buf = append(buf, "_slo_"...)
		buf = append(buf, name...)
		buf = append(buf, ' ')
		buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		buf = append(buf, '\n')
	}
	emit("availability_target", r.Availability)
	if r.LatencyTargetMS > 0 {
		emit("latency_target_seconds", r.LatencyTargetMS/1e3)
	}
	emit("fast_window_seconds", r.Fast.Seconds)
	emit("slow_window_seconds", r.Slow.Seconds)
	emit("fast_availability_burn", r.Fast.AvailabilityBurn)
	emit("slow_availability_burn", r.Slow.AvailabilityBurn)
	emit("fast_latency_burn", r.Fast.LatencyBurn)
	emit("slow_latency_burn", r.Slow.LatencyBurn)
	emit("page_availability", b2f(r.PageAvailability))
	emit("page_latency", b2f(r.PageLatency))
	_, err := w.Write(buf)
	return err
}
