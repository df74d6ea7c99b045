package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic count. All methods are safe
// (and free) on a nil receiver, so disabled instrumentation holds nil
// handles instead of branching.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (negative n is ignored).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// HistBuckets is the number of power-of-two latency buckets: bucket k counts
// observations below 2^k milliseconds, the last bucket is the overflow.
const HistBuckets = 21

// Histogram is a lock-free log-scale latency histogram — the same
// power-of-two millisecond bucketing the serving daemon has always exported,
// now shared by every stage of the pipeline. ObserveExemplar additionally
// tracks the slowest observation's correlation ID (a request ID) so the tail
// of every distribution points at a concrete traceable request.
type Histogram struct {
	buckets [HistBuckets]atomic.Int64
	count   atomic.Int64
	sumUS   atomic.Int64

	exMu    sync.Mutex
	exDurUS int64
	exID    string
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	ms := d.Milliseconds()
	k := 0
	for k < HistBuckets-1 && ms >= 1<<k {
		k++
	}
	h.buckets[k].Add(1)
	h.count.Add(1)
	h.sumUS.Add(d.Microseconds())
}

// ObserveExemplar records one duration and, when it is the slowest seen so
// far, captures id as the histogram's slowest exemplar.
func (h *Histogram) ObserveExemplar(d time.Duration, id string) {
	if h == nil {
		return
	}
	h.Observe(d)
	if id == "" {
		return
	}
	us := d.Microseconds()
	h.exMu.Lock()
	if us >= h.exDurUS {
		h.exDurUS = us
		h.exID = id
	}
	h.exMu.Unlock()
}

// Count returns the number of observations recorded.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile returns the upper edge of the bucket holding the p-quantile
// observation (p clamped to [0, 1]; 0 when empty). It rounds up, which is
// the right bias for a budget such as a hedge trigger: act a touch late
// rather than early. The overflow bucket reports 2^(HistBuckets-1) ms.
func (h *Histogram) Quantile(p float64) time.Duration {
	total := h.Count()
	if total == 0 {
		return 0
	}
	p = min(max(p, 0), 1)
	target := max(int64(p*float64(total)), 1)
	var cum int64
	k := 0
	for ; k < HistBuckets-1; k++ {
		if cum += h.buckets[k].Load(); cum >= target {
			break
		}
	}
	return time.Duration(int64(1)<<k) * time.Millisecond
}

// HistView is the JSON rendering of one histogram — the /metrics wire shape
// dashboards key on ("le_<2^k>ms" → count, "inf" for the overflow bucket).
// SlowestID/SlowestMS carry the slowest exemplar when one was captured.
type HistView struct {
	Count     int64            `json:"count"`
	MeanMS    float64          `json:"mean_ms"`
	Buckets   map[string]int64 `json:"buckets,omitempty"`
	SlowestID string           `json:"slowest_request,omitempty"`
	SlowestMS float64          `json:"slowest_ms,omitempty"`
}

// View snapshots the histogram into its JSON shape.
func (h *Histogram) View() HistView {
	if h == nil {
		return HistView{}
	}
	v := HistView{Count: h.count.Load()}
	if v.Count > 0 {
		v.MeanMS = float64(h.sumUS.Load()) / 1e3 / float64(v.Count)
		v.Buckets = make(map[string]int64)
		for k := 0; k < HistBuckets; k++ {
			if n := h.buckets[k].Load(); n > 0 {
				if k == HistBuckets-1 {
					v.Buckets["inf"] = n
				} else {
					v.Buckets[bucketLabel(k)] = n
				}
			}
		}
		h.exMu.Lock()
		if v.SlowestID = h.exID; v.SlowestID != "" {
			v.SlowestMS = float64(h.exDurUS) / 1e3
		}
		h.exMu.Unlock()
	}
	return v
}

func bucketLabel(k int) string {
	// "le_1ms", "le_2ms", ... — small fixed set, build without fmt.
	ms := int64(1) << k
	return "le_" + Itoa(ms) + "ms"
}

// Itoa formats a non-negative int64 without fmt, for allocation-sensitive
// label construction.
func Itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// GaugeFunc derives a metric value at scrape time — how owner-held state
// (queue depth, breaker state) is exported without duplicating it.
type GaugeFunc func() float64

// Registry is the typed metrics registry: get-or-create named instruments,
// rendered as JSON by Snapshot and as Prometheus text exposition by
// WritePrometheus. Instrument handles are stable — hot paths resolve them
// once and then touch only atomics.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	cfuncs   map[string]GaugeFunc // scrape-time counters (cumulative)
	gfuncs   map[string]GaugeFunc // scrape-time gauges (instantaneous)
	infos    map[string]map[string]string
	help     map[string]string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		cfuncs:   make(map[string]GaugeFunc),
		gfuncs:   make(map[string]GaugeFunc),
		infos:    make(map[string]map[string]string),
		help:     make(map[string]string),
	}
}

// Counter returns the named counter, creating it on first use. Nil-safe: a
// nil registry returns a nil (inert) handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// RegisterGaugeFunc exports fn as a gauge sampled at scrape time.
func (r *Registry) RegisterGaugeFunc(name string, fn GaugeFunc) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gfuncs[name] = fn
}

// RegisterCounterFunc exports fn as a cumulative counter sampled at scrape
// time (for totals owned by other subsystems, e.g. admission accounting).
func (r *Registry) RegisterCounterFunc(name string, fn GaugeFunc) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cfuncs[name] = fn
}

// RegisterInfo exports a constant info metric: a gauge with value 1 carrying
// its payload in labels (the build_info idiom).
func (r *Registry) RegisterInfo(name string, labels map[string]string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.infos[name] = labels
}

// SetHelp attaches a HELP string emitted in the Prometheus exposition.
func (r *Registry) SetHelp(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = help
}

// sortedKeys returns map keys in deterministic order for rendering.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
