package obs

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestHistogramView(t *testing.T) {
	var h Histogram
	h.Observe(500 * time.Microsecond) // le_1ms
	h.Observe(3 * time.Millisecond)   // le_4ms
	h.Observe(3 * time.Millisecond)
	h.Observe(-time.Second) // clamped to zero → le_1ms
	v := h.View()
	if v.Count != 4 {
		t.Fatalf("count %d, want 4", v.Count)
	}
	if v.Buckets["le_1ms"] != 2 || v.Buckets["le_4ms"] != 2 {
		t.Errorf("buckets = %v", v.Buckets)
	}
	wantMean := (0.5 + 3 + 3 + 0) / 4.0
	if diff := v.MeanMS - wantMean; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("mean %.4f ms, want %.4f", v.MeanMS, wantMean)
	}
	// Overflow bucket.
	var o Histogram
	o.Observe(48 * time.Hour)
	if o.View().Buckets["inf"] != 1 {
		t.Errorf("overflow view = %v", o.View().Buckets)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for _, o := range []struct {
		d time.Duration
		n int
	}{
		{500 * time.Microsecond, 10}, // bucket le_1ms
		{3 * time.Millisecond, 5},    // le_4ms
		{100 * time.Millisecond, 4},  // le_128ms
		{48 * time.Hour, 1},          // overflow
	} {
		for i := 0; i < o.n; i++ {
			h.Observe(o.d)
		}
	}
	if h.Count() != 20 {
		t.Fatalf("count %d, want 20", h.Count())
	}
	overflow := time.Duration(1<<(HistBuckets-1)) * time.Millisecond
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{
		{-1, time.Millisecond}, // clamped to 0: the first observation
		{0, time.Millisecond},
		{0.5, time.Millisecond}, // 10th of 20 observations
		{0.55, 4 * time.Millisecond},
		{0.75, 4 * time.Millisecond},
		{0.8, 128 * time.Millisecond},
		{0.95, 128 * time.Millisecond},
		{1, overflow},
		{2, overflow}, // clamped to 1
	} {
		if got := h.Quantile(c.p); got != c.want {
			t.Errorf("Quantile(%g) = %v, want %v", c.p, got, c.want)
		}
	}
	var empty Histogram
	var nilHist *Histogram
	if empty.Quantile(0.5) != 0 || nilHist.Quantile(0.5) != 0 || nilHist.Count() != 0 {
		t.Errorf("empty and nil histograms must report 0")
	}
}

func TestRegistryHandlesStable(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("route_ripups_total")
	c1.Add(3)
	if got := r.Counter("route_ripups_total").Value(); got != 3 {
		t.Errorf("re-resolved counter value %d, want 3", got)
	}
	r.Gauge("depth").Set(5)
	r.Gauge("depth").Add(-2)
	if got := r.Gauge("depth").Value(); got != 3 {
		t.Errorf("gauge %d, want 3", got)
	}
	// Counters never go backwards.
	c1.Add(-100)
	if got := c1.Value(); got != 3 {
		t.Errorf("counter after negative add = %d, want 3", got)
	}
	// Nil registry yields inert handles.
	var nr *Registry
	nr.Counter("x").Inc()
	nr.Gauge("y").Set(1)
	nr.Histogram("z").Observe(time.Second)
	nr.RegisterGaugeFunc("f", func() float64 { return 1 })
}

// promSampleRe is the exposition-format sample line: a valid metric name,
// optional label set, and a float value.
var promSampleRe = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? [^ ]+$`)

// TestWritePrometheusParses validates the exposition against the format
// rules a Prometheus scraper enforces: TYPE before samples, valid names,
// parseable values, cumulative non-decreasing histogram buckets ending in
// +Inf, and _count agreeing with the +Inf bucket.
func TestWritePrometheusParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("analogfold_relax_retried_total").Add(2)
	r.SetHelp("analogfold_relax_retried_total", "restart attempts rerun after divergence")
	r.Gauge("analogfold_queue_depth").Set(1)
	r.RegisterGaugeFunc("analogfold_breaker_state", func() float64 { return 2 })
	r.RegisterCounterFunc("analogfold_shed_total", func() float64 { return 9 })
	r.RegisterInfo("analogfold_build_info", map[string]string{
		"goversion": "go1.24.0", "path": "analogfold", "revision": `quote"back\slash`,
	})
	h := r.Histogram("analogfold_route_seconds")
	h.Observe(700 * time.Microsecond)
	h.Observe(3 * time.Millisecond)
	h.Observe(999 * time.Hour)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	typed := map[string]string{}
	bucketCum := map[string]int64{}
	var lastLe float64 = -1
	sawInf := false
	counts := map[string]int64{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if !promSampleRe.MatchString(line) {
			t.Fatalf("line fails exposition grammar: %q", line)
		}
		name := line[:strings.IndexAny(line, "{ ")]
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if _, ok := typed[base]; !ok {
			t.Errorf("sample %q before (or without) its TYPE declaration", line)
		}
		valStr := line[strings.LastIndex(line, " ")+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		if strings.HasSuffix(name, "_bucket") {
			leStart := strings.Index(line, `le="`) + 4
			le := line[leStart : leStart+strings.Index(line[leStart:], `"`)]
			if le == "+Inf" {
				sawInf = true
			} else {
				f, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("bad le %q: %v", le, err)
				}
				if f <= lastLe {
					t.Errorf("le %g not increasing after %g", f, lastLe)
				}
				lastLe = f
			}
			if int64(val) < bucketCum[base] {
				t.Errorf("bucket series %s not cumulative: %v after %d", base, val, bucketCum[base])
			}
			bucketCum[base] = int64(val)
		}
		if strings.HasSuffix(name, "_count") {
			counts[base] = int64(val)
		}
	}
	if !sawInf {
		t.Error("histogram missing +Inf bucket")
	}
	if counts["analogfold_route_seconds"] != 3 {
		t.Errorf("histogram count %d, want 3", counts["analogfold_route_seconds"])
	}
	if bucketCum["analogfold_route_seconds"] != counts["analogfold_route_seconds"] {
		t.Errorf("+Inf bucket %d != count %d",
			bucketCum["analogfold_route_seconds"], counts["analogfold_route_seconds"])
	}
	if typed["analogfold_route_seconds"] != "histogram" ||
		typed["analogfold_relax_retried_total"] != "counter" ||
		typed["analogfold_shed_total"] != "counter" ||
		typed["analogfold_breaker_state"] != "gauge" ||
		typed["analogfold_build_info"] != "gauge" {
		t.Errorf("TYPE map = %v", typed)
	}
	if !strings.Contains(text, "# HELP analogfold_relax_retried_total ") {
		t.Error("HELP line missing")
	}
	if !strings.Contains(text, `goversion="go1.24.0"`) {
		t.Error("build info labels missing")
	}

	// Deterministic rendering: a second pass is byte-identical.
	var sb2 strings.Builder
	if err := r.WritePrometheus(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != text {
		t.Error("exposition not deterministic across renders")
	}
}

func TestSanitizeMetricName(t *testing.T) {
	for in, want := range map[string]string{
		"route.iteration": "route_iteration",
		"9lives":          "_lives",
		"ok_name:x9":      "ok_name:x9",
		"":                "_",
	} {
		if got := SanitizeMetricName(in); got != want {
			t.Errorf("SanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}
