package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"analogfold/internal/gnn3d"
	"analogfold/internal/obs"
)

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestMetricsContentTypes pins the two /metrics renderings of one registry:
// the series-keyed JSON object (application/json, with build info) and the
// Prometheus text exposition (?format=prom, versioned text/plain content
// type), with one JSON key per Prometheus family.
func TestMetricsContentTypes(t *testing.T) {
	s := New(gnn3d.New(gnn3d.Config{Seed: 1}), Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("JSON Content-Type = %q, want application/json", ct)
	}
	m := decodeMetrics(t, body)
	var build map[string]string
	if err := json.Unmarshal(m["analogfold_build_info"], &build); err != nil || build["goversion"] == "" {
		t.Errorf("JSON missing build info: %s (%v)", m["analogfold_build_info"], err)
	}

	resp, body = getBody(t, ts.URL+"/metrics?format=prom")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prom status = %d", resp.StatusCode)
	}
	const wantCT = "text/plain; version=0.0.4; charset=utf-8"
	if ct := resp.Header.Get("Content-Type"); ct != wantCT {
		t.Errorf("prom Content-Type = %q, want %q", ct, wantCT)
	}
	text := string(body)
	if !strings.Contains(text, "analogfold_build_info{") {
		t.Errorf("prom exposition missing analogfold_build_info:\n%s", text)
	}
	if !strings.Contains(text, "# TYPE analogfold_serve_queue_depth gauge") {
		t.Errorf("prom exposition missing serve gauge TYPE line:\n%s", text)
	}
	// Every non-comment line must be a well-formed sample, and every family
	// a key of the JSON object.
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9eE+.naif-]+$`)
	families := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			families[strings.Fields(line)[2]] = true
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
	for name := range families {
		if _, ok := m[name]; !ok {
			t.Errorf("prom family %s has no JSON key", name)
		}
	}
	for name := range m {
		if !families[name] {
			t.Errorf("JSON key %s has no prom family", name)
		}
	}
}

// TestFlightEndpointFormats exercises /debug/flight in both renderings: the
// raw ring snapshot and the Chrome trace_event conversion.
func TestFlightEndpointFormats(t *testing.T) {
	tel := obs.New(obs.Options{Seed: 7})
	s := New(gnn3d.New(gnn3d.Config{Seed: 1}), Config{Telemetry: tel})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Record one span through the same context path handlers use.
	ctx := obs.WithTelemetry(context.Background(), tel)
	_, span := obs.StartSpan(ctx, "test.span")
	span.Arg("k", "v").End()

	resp, body := getBody(t, ts.URL+"/debug/flight")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("flight Content-Type = %q", ct)
	}
	var snap FlightSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("flight snapshot not JSON: %v\n%s", err, body)
	}
	if snap.Total < 1 || len(snap.Events) < 1 {
		t.Fatalf("flight snapshot empty: total=%d events=%d", snap.Total, len(snap.Events))
	}
	if snap.Events[len(snap.Events)-1].Name != "test.span" {
		t.Errorf("last event = %q, want test.span", snap.Events[len(snap.Events)-1].Name)
	}

	resp, body = getBody(t, ts.URL+"/debug/flight?format=trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d", resp.StatusCode)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("trace not JSON: %v\n%s", err, body)
	}
	if len(tr.TraceEvents) < 1 {
		t.Fatalf("trace has no events:\n%s", body)
	}
}

// TestDebugHandlerSurface checks the -debug-addr mux mounts pprof, expvar,
// flight and metrics — and that the service Handler does NOT expose pprof.
func TestDebugHandlerSurface(t *testing.T) {
	s := New(gnn3d.New(gnn3d.Config{Seed: 1}), Config{})
	dbg := httptest.NewServer(s.DebugHandler())
	defer dbg.Close()

	for _, path := range []string{"/debug/pprof/", "/debug/vars", "/debug/flight", "/metrics"} {
		resp, body := getBody(t, dbg.URL+path)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d\n%s", path, resp.StatusCode, body)
		}
	}

	svc := httptest.NewServer(s.Handler())
	defer svc.Close()
	resp, _ := getBody(t, svc.URL+"/debug/pprof/")
	if resp.StatusCode == http.StatusOK {
		t.Errorf("service listener exposes pprof (status %d)", resp.StatusCode)
	}
}
