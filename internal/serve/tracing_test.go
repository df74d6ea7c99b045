package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"analogfold/internal/core"
	"analogfold/internal/hetgraph"
	"analogfold/internal/obs"
)

// tracedStubServer builds a telemetry-enabled server whose guidance work is a
// stub that burns a deterministic stage so the timing header has content.
func tracedStubServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Telemetry == nil {
		cfg.Telemetry = obs.New(obs.Options{Seed: 11})
	}
	s := New(nil, cfg)
	stubFlow(s, "OTA1-A")
	s.doGuidance = func(ctx context.Context, _ *core.Flow, _ *hetgraph.Graph, req GuidanceRequest, _ bool) (*GuidanceResponse, error) {
		_, span := obs.StartSpan(ctx, "stub.work")
		obs.StagesFrom(ctx).Add(obs.StageRelax, 3*time.Millisecond)
		span.End()
		return eliteStub(req, true), nil
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestTracedRequestTrailerExport pins the replica half of cross-process
// tracing: a request carrying a traceparent joins the caller's trace, answers
// with the per-stage timing header, and exports its span subtree (parented
// under the caller's span) plus its clock in announced response trailers.
func TestTracedRequestTrailerExport(t *testing.T) {
	_, ts := tracedStubServer(t, Config{})

	remote := obs.TraceContext{TraceID: strings.Repeat("ab", 16), SpanID: 0x42}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/guidance",
		strings.NewReader(`{"bench":"OTA1-A"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.HeaderTraceparent, obs.FormatTraceparent(remote))
	before := time.Now().UnixMicro()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d err %v body %s", resp.StatusCode, err, body)
	}

	if rid := resp.Header.Get(HeaderRequestID); rid == "" {
		t.Error("response missing minted " + HeaderRequestID)
	}
	// An uncontended admit waits sub-microsecond, so the queue stage rounds
	// to zero and is rightly dropped; the stub's relax stage must be there.
	timing := resp.Header.Get(HeaderTiming)
	if !strings.Contains(timing, "relax;dur=3.000") {
		t.Errorf("timing header %q missing relax stage", timing)
	}

	// Trailers are populated once the body hit EOF above.
	sums, err := obs.DecodeSpanSummaries(resp.Trailer.Get(TrailerSpans))
	if err != nil || len(sums) == 0 {
		t.Fatalf("span trailer: err=%v sums=%v", err, sums)
	}
	var root *obs.SpanSummary
	for i, s := range sums {
		if s.Name == "serve.guidance" {
			root = &sums[i]
		}
	}
	if root == nil {
		t.Fatalf("no serve.guidance span in trailer: %+v", sums)
	}
	if root.Parent != remote.SpanID || root.Trace != remote.TraceID {
		t.Errorf("root parent/trace = %d/%q, want caller's %d/%q",
			root.Parent, root.Trace, remote.SpanID, remote.TraceID)
	}
	found := false
	for _, s := range sums {
		if s.Name == "stub.work" && s.Parent == root.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("stub.work not parented under serve.guidance: %+v", sums)
	}
	clock, err := strconv.ParseInt(resp.Trailer.Get(TrailerClock), 10, 64)
	if err != nil || clock < before {
		t.Errorf("clock trailer %q (err %v), want unix micros >= %d",
			resp.Trailer.Get(TrailerClock), err, before)
	}
}

// TestUntracedRequestHasNoTrailer pins that span export is strictly opt-in
// via traceparent: a plain request still gets the timing header but must not
// announce or carry span trailers.
func TestUntracedRequestHasNoTrailer(t *testing.T) {
	_, ts := tracedStubServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"OTA1-A"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s", resp.StatusCode, body)
	}
	if resp.Header.Get(HeaderTiming) == "" {
		t.Error("untraced request lost the timing header")
	}
	if v := resp.Trailer.Get(TrailerSpans); v != "" {
		t.Errorf("untraced request exported spans: %q", v)
	}
}

// TestSLOEndpointFormats drives traffic through a server with SLO objectives
// and checks both /debug/slo renderings, plus the disabled shape.
func TestSLOEndpointFormats(t *testing.T) {
	_, ts := tracedStubServer(t, Config{
		SLOLatency:      time.Second,
		SLOAvailability: 0.999,
	})
	for i := 0; i < 3; i++ {
		if resp, body := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"OTA1-A"}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d body %s", resp.StatusCode, body)
		}
	}

	resp, body := getBody(t, ts.URL+"/debug/slo")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slo status %d", resp.StatusCode)
	}
	var rep obs.SLOReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("slo not JSON: %v\n%s", err, body)
	}
	if !rep.Enabled || rep.Fast.Total < 3 || rep.Slow.Total < 3 {
		t.Errorf("report %+v, want enabled with >=3 requests in both windows", rep)
	}
	if rep.Fast.Errors != 0 || rep.PageAvailability || rep.PageLatency {
		t.Errorf("healthy traffic should not burn or page: %+v", rep)
	}
	if rep.LatencyTargetMS != 1000 {
		t.Errorf("latency target %v ms, want 1000", rep.LatencyTargetMS)
	}

	resp, body = getBody(t, ts.URL+"/debug/slo?format=prom")
	const wantCT = "text/plain; version=0.0.4; charset=utf-8"
	if ct := resp.Header.Get("Content-Type"); ct != wantCT {
		t.Errorf("prom Content-Type %q, want %q", ct, wantCT)
	}
	text := string(body)
	for _, metric := range []string{
		"analogfold_serve_slo_fast_availability_burn",
		"analogfold_serve_slo_slow_latency_burn",
	} {
		if !strings.Contains(text, metric) {
			t.Errorf("prom exposition missing %s:\n%s", metric, text)
		}
	}

	// Without objectives the endpoint stays scrapeable but reports disabled.
	_, ts2 := tracedStubServer(t, Config{})
	_, body = getBody(t, ts2.URL+"/debug/slo")
	var off obs.SLOReport
	if err := json.Unmarshal(body, &off); err != nil || off.Enabled {
		t.Errorf("no-objective report: err=%v %+v, want enabled=false", err, off)
	}
}

// TestStageMetricsExposition pins that the per-stage histograms land in
// /metrics with the slowest-request exemplar attached.
func TestStageMetricsExposition(t *testing.T) {
	s, ts := tracedStubServer(t, Config{})
	if resp, body := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"OTA1-A"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s", resp.StatusCode, body)
	}
	v := registryMetrics(t, s).hist(t, "analogfold_serve_stage_relax_seconds")
	if v.Count < 1 || v.SlowestID == "" {
		t.Errorf("relax view %+v, want count>=1 with exemplar", v)
	}
	_, body := getBody(t, ts.URL+"/metrics?format=prom")
	if !strings.Contains(string(body), "analogfold_serve_stage_relax_seconds") {
		t.Errorf("prom exposition missing stage histogram:\n%.2000s", body)
	}
}

// parseTimingHeader reads an X-Analogfold-Timing value back into
// milliseconds per stage name.
func parseTimingHeader(t *testing.T, h string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, part := range strings.Split(h, ", ") {
		name, dur, ok := strings.Cut(part, ";dur=")
		if !ok {
			t.Fatalf("malformed timing entry %q in %q", part, h)
		}
		ms, err := strconv.ParseFloat(dur, 64)
		if err != nil {
			t.Fatalf("timing entry %q: %v", part, err)
		}
		out[name] = ms
	}
	return out
}

// TestStagesDoNotOverlap pins that a request's timing stages partition its
// time. On /v1/route, relax.Optimize scores its candidates inside the
// relaxation phase and credits the score stage itself, so the relax stage must
// keep only the rest of the phase: relax + score fits in the phase and the
// stage sum fits in the request. On the batched /v1/guidance path scoring is
// deferred past the phase, so relax stays the whole phase.
func TestStagesDoNotOverlap(t *testing.T) {
	tel := obs.New(obs.Options{Seed: 5})
	s := New(trainedModel(t), Config{Opts: testOpts(), Telemetry: tel, BatchWindow: time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Microsecond truncation of stages and span timestamps.
	const slackMS = 0.01
	do := func(path, body string) (stages map[string]float64, wallMS, phaseMS float64) {
		t.Helper()
		start := time.Now()
		resp, b := postJSON(t, ts.URL+path, body)
		wallMS = float64(time.Since(start).Microseconds()) / 1e3
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d body %s", path, resp.StatusCode, b)
		}
		stages = parseTimingHeader(t, resp.Header.Get(HeaderTiming))
		phaseMS = -1
		for _, e := range tel.Recorder().Snapshot() {
			if e.Name == "relaxation" {
				phaseMS = float64(e.DurUS) / 1e3 // the last one is this request's
			}
		}
		if phaseMS < 0 {
			t.Fatalf("%s: no relaxation span recorded", path)
		}
		sum := 0.0
		for _, ms := range stages {
			sum += ms
		}
		if sum > wallMS+slackMS {
			t.Errorf("%s: stages %v sum to %.3f ms, more than the request's %.3f ms", path, stages, sum, wallMS)
		}
		return stages, wallMS, phaseMS
	}

	// The guidance request also builds the flow, so the route request's wall
	// time is nearly all relaxation and routing.
	g, _, gPhase := do("/v1/guidance", `{"bench":"OTA1-A","seed":3}`)
	if g["score"] <= 0 {
		t.Errorf("guidance stages %v: want a score stage from the wave", g)
	}
	// The phase span opens a little before the stage clock starts, so relax
	// reads slightly under it; a deferred score must not be taken out.
	if g["relax"] > gPhase+slackMS || gPhase-g["relax"] > g["score"]/2 {
		t.Errorf("deferred guidance: relax stage %.3f ms, relaxation phase %.3f ms, score %.3f ms; want relax = phase",
			g["relax"], gPhase, g["score"])
	}

	r, _, rPhase := do("/v1/route", `{"bench":"OTA1-A","seed":4}`)
	if r["score"] <= 0 || r["relax"] <= 0 || r["route"] <= 0 {
		t.Fatalf("route stages %v: want relax, score and route", r)
	}
	if r["relax"]+r["score"] > rPhase+slackMS {
		t.Errorf("route: relax %.3f + score %.3f ms exceed the relaxation phase %.3f ms",
			r["relax"], r["score"], rPhase)
	}
}

// TestBreakerOpenRouteAttributed pins that the route a breaker-open
// /v1/route serves from the ladder bottom is a routing stage like any other:
// the response's timing header carries a route entry and the flight recorder
// holds a guided-routing span.
func TestBreakerOpenRouteAttributed(t *testing.T) {
	tel := obs.New(obs.Options{Seed: 5})
	s := New(trainedModel(t), Config{Opts: testOpts(), Telemetry: tel, BreakerThreshold: 1})
	s.brk.record(true)
	if state, _, _ := s.brk.snapshot(); state != breakerOpen {
		t.Fatalf("breaker state = %s, want open", state)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, b := postJSON(t, ts.URL+"/v1/route", `{"bench":"OTA1-A","seed":4}`)
	var rr RouteResponse
	if err := json.Unmarshal(b, &rr); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s: %v", resp.StatusCode, b, err)
	}
	if rr.Rung != string(core.RungMagical) || !rr.Degraded {
		t.Fatalf("rung %q degraded %v, want the breaker-open magical rung", rr.Rung, rr.Degraded)
	}
	if stages := parseTimingHeader(t, resp.Header.Get(HeaderTiming)); stages["route"] <= 0 {
		t.Errorf("timing stages %v: want a route stage", stages)
	}
	spanned := false
	for _, e := range tel.Recorder().Snapshot() {
		spanned = spanned || e.Name == "guided-routing"
	}
	if !spanned {
		t.Error("no guided-routing span recorded")
	}
}
