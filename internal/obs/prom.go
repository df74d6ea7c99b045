package obs

import (
	"io"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one # TYPE line per metric family (preceded by
// # HELP when set), samples in deterministic name order, histograms as
// cumulative _bucket{le=...} series with _sum and _count. Serve it with
// Content-Type "text/plain; version=0.0.4; charset=utf-8".
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder

	header := func(name, typ string) {
		if h, ok := r.help[name]; ok {
			b.WriteString("# HELP " + name + " " + h + "\n")
		}
		b.WriteString("# TYPE " + name + " " + typ + "\n")
	}

	for _, name := range sortedKeys(r.counters) {
		header(name, "counter")
		b.WriteString(name + " " + strconv.FormatInt(r.counters[name].Value(), 10) + "\n")
	}
	for _, name := range sortedKeys(r.cfuncs) {
		header(name, "counter")
		b.WriteString(name + " " + formatFloat(r.cfuncs[name]()) + "\n")
	}
	for _, name := range sortedKeys(r.gauges) {
		header(name, "gauge")
		b.WriteString(name + " " + strconv.FormatInt(r.gauges[name].Value(), 10) + "\n")
	}
	for _, name := range sortedKeys(r.gfuncs) {
		header(name, "gauge")
		b.WriteString(name + " " + formatFloat(r.gfuncs[name]()) + "\n")
	}
	for _, name := range sortedKeys(r.infos) {
		header(name, "gauge")
		b.WriteString(name + "{" + formatLabels(r.infos[name]) + "} 1\n")
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		header(name, "histogram")
		cum := int64(0)
		for k := 0; k < HistBuckets-1; k++ {
			cum += h.buckets[k].Load()
			// Bucket k's upper bound is 2^k milliseconds, exposed in seconds.
			le := strconv.FormatFloat(float64(int64(1)<<k)/1e3, 'g', -1, 64)
			b.WriteString(name + `_bucket{le="` + le + `"} ` + strconv.FormatInt(cum, 10) + "\n")
		}
		b.WriteString(name + `_bucket{le="+Inf"} ` + strconv.FormatInt(h.count.Load(), 10) + "\n")
		b.WriteString(name + "_sum " + formatFloat(float64(h.sumUS.Load())/1e6) + "\n")
		b.WriteString(name + "_count " + strconv.FormatInt(h.count.Load(), 10) + "\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Snapshot renders the registry as the /metrics JSON body: one flat object
// keyed by series name, built by walking the same maps as WritePrometheus.
// Counters and gauges (and their scrape-time funcs) give numbers, histograms
// their HistView, info metrics their label map.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any)
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, fn := range r.cfuncs {
		out[name] = fn()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, fn := range r.gfuncs {
		out[name] = fn()
	}
	for name, labels := range r.infos {
		out[name] = labels
	}
	for name, h := range r.hists {
		out[name] = h.View()
	}
	return out
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// formatLabels renders a label set as k="v" pairs in sorted key order with
// the exposition format's escaping for label values.
func formatLabels(labels map[string]string) string {
	parts := make([]string, 0, len(labels))
	for _, k := range sortedKeys(labels) {
		v := labels[k]
		v = strings.ReplaceAll(v, `\`, `\\`)
		v = strings.ReplaceAll(v, "\n", `\n`)
		v = strings.ReplaceAll(v, `"`, `\"`)
		parts = append(parts, k+`="`+v+`"`)
	}
	return strings.Join(parts, ",")
}

// SanitizeMetricName maps an arbitrary string onto the Prometheus metric
// name alphabet [a-zA-Z_:][a-zA-Z0-9_:]*.
func SanitizeMetricName(s string) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteRune(c)
		case c >= '0' && c <= '9' && i > 0:
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
