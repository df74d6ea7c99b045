package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"analogfold/internal/core"
	"analogfold/internal/fault"
	"analogfold/internal/gnn3d"
	"analogfold/internal/hetgraph"
	"analogfold/internal/netlist"
	"analogfold/internal/obs"
	"analogfold/internal/place"
)

// testOpts mirrors the core package's quick fixture settings.
func testOpts() core.Options {
	return core.Options{
		Samples: 10, TrainEpochs: 6, RelaxRestarts: 3, NDerive: 2,
		PlaceIters: 1200, Seed: 1, Workers: 2,
	}
}

var (
	fixOnce  sync.Once
	fixModel *gnn3d.Model
	fixErr   error
)

// trainedModel trains the shared OTA1-A fixture checkpoint once per test
// binary; tests that exercise the real warm path share it.
func trainedModel(t *testing.T) *gnn3d.Model {
	t.Helper()
	fixOnce.Do(func() {
		f, err := core.NewFlow(netlist.OTA1(), place.ProfileA, testOpts())
		if err != nil {
			fixErr = err
			return
		}
		fixModel, _, fixErr = f.LoadOrTrainModel(context.Background(), "")
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixModel
}

// stubFlow pre-consumes a benchmark's flowEntry so handler tests with stubbed
// work functions never pay for a real placement.
func stubFlow(s *Server, bench string) {
	e := &flowEntry{}
	e.once.Do(func() {})
	s.mu.Lock()
	s.flows[bench] = e
	s.mu.Unlock()
}

// okOutcome is the minimal well-formed outcome a doRoute stub returns.
func okOutcome() *core.Outcome {
	return &core.Outcome{Degradation: &core.DegradationReport{FinalRung: core.RungElite}}
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
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

// waitGoroutines polls until the goroutine count settles back near the
// baseline (same tolerance as the parallel package's leak check).
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+8 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Errorf("goroutine leak: before=%d after=%d", before, runtime.NumGoroutine())
}

func TestServedGuidanceMatchesCLIPath(t *testing.T) {
	m := trainedModel(t)
	s := New(m, Config{Opts: testOpts()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"OTA1-A"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}

	// The CLI path: the same builder on an independently constructed flow.
	f, err := core.NewFlow(netlist.OTA1(), place.ProfileA, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	want, err := BuildGuidanceResponse(context.Background(), f, m, nil,
		GuidanceRequest{Bench: "OTA1-A"}, true)
	if err != nil {
		t.Fatal(err)
	}
	wantBody, err := MarshalBody(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, wantBody) {
		t.Errorf("served guidance differs from CLI path:\nserved: %.200s\ncli:    %.200s", body, wantBody)
	}

	// Served twice → identical bytes (warm cache is deterministic).
	_, body2 := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"OTA1-A"}`)
	if !bytes.Equal(body, body2) {
		t.Error("repeated request returned different bytes")
	}

	// Regression pins on the healthy shape.
	var gr GuidanceResponse
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	if gr.Rung != "elite" || gr.Degraded {
		t.Errorf("healthy guidance rung=%q degraded=%v, want elite/false", gr.Rung, gr.Degraded)
	}
	if len(gr.Guides) != 2 || len(gr.Potentials) != len(gr.Guides) {
		t.Errorf("want NDerive=2 guidance sets with potentials, got %d/%d",
			len(gr.Guides), len(gr.Potentials))
	}
	nets := len(netlist.OTA1().Nets)
	for _, set := range gr.Guides {
		if len(set) != nets {
			t.Fatalf("guidance set has %d nets, want %d", len(set), nets)
		}
		for _, v := range set {
			for _, x := range v {
				if !(x > 0 && x < gr.CMax) {
					t.Fatalf("guidance element %v outside (0, %v)", x, gr.CMax)
				}
			}
		}
	}
}

func TestLoadShedAccounting(t *testing.T) {
	s := New(nil, Config{
		QueueCapacity: 2, QueueBacklog: 2,
		AdmissionTimeout: 150 * time.Millisecond,
		Opts:             testOpts(),
	})
	stubFlow(s, "OTA1-A")
	gate := make(chan struct{})
	started := make(chan struct{}, 16)
	s.doRoute = func(context.Context, *core.Flow, *hetgraph.Graph, RouteRequest, bool) (*RouteResponse, *core.Outcome, error) {
		started <- struct{}{}
		<-gate
		return &RouteResponse{Bench: "OTA1-A", Rung: "elite"}, okOutcome(), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		status     int
		retryAfter string
		elapsed    time.Duration
	}
	results := make(chan result, 8)
	send := func() {
		t0 := time.Now()
		resp, _ := postJSON(t, ts.URL+"/v1/route", `{"bench":"OTA1-A"}`)
		results <- result{resp.StatusCode, resp.Header.Get("Retry-After"), time.Since(t0)}
	}
	// Fill both executing slots first so the remaining six requests face a
	// full queue deterministically.
	for i := 0; i < 2; i++ {
		go send()
		<-started
	}
	for i := 0; i < 6; i++ {
		go send()
	}
	// All six must come back shed: four immediately (backlog full), two after
	// the admission deadline — well before any slot frees up.
	for i := 0; i < 6; i++ {
		r := <-results
		if r.status != http.StatusServiceUnavailable {
			t.Fatalf("overflow request got status %d, want 503", r.status)
		}
		if sec, err := strconv.Atoi(r.retryAfter); err != nil || sec < 1 {
			t.Errorf("shed response Retry-After = %q, want >= 1s", r.retryAfter)
		}
		if r.elapsed > 2*time.Second {
			t.Errorf("shed took %v, want within the admission deadline", r.elapsed)
		}
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if r := <-results; r.status != http.StatusOK {
			t.Errorf("admitted request got status %d, want 200", r.status)
		}
	}

	_, mb := getMetrics(t, ts.URL)
	accepted, shed := mb.num(t, "analogfold_serve_accepted_total"), mb.num(t, "analogfold_serve_shed_total")
	if accepted != 2 || shed != 6 {
		t.Errorf("accounting accepted=%d shed=%d, want 2/6", accepted, shed)
	}
	if accepted+shed != 8 {
		t.Errorf("accepted+shed != sent: %d+%d != 8", accepted, shed)
	}
}

// metricsBody is a decoded /metrics JSON object: series name → raw value.
type metricsBody map[string]json.RawMessage

// num reads a counter or gauge series.
func (m metricsBody) num(t *testing.T, name string) int64 {
	t.Helper()
	var v float64
	if err := json.Unmarshal(m[name], &v); err != nil {
		t.Fatalf("series %s = %s: %v", name, m[name], err)
	}
	return int64(v)
}

// hist reads a histogram series.
func (m metricsBody) hist(t *testing.T, name string) obs.HistView {
	t.Helper()
	var v obs.HistView
	if err := json.Unmarshal(m[name], &v); err != nil {
		t.Fatalf("series %s = %s: %v", name, m[name], err)
	}
	return v
}

func decodeMetrics(t *testing.T, body []byte) metricsBody {
	t.Helper()
	var m metricsBody
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("/metrics body is not a JSON object: %v\n%s", err, body)
	}
	return m
}

func getMetrics(t *testing.T, base string) (*http.Response, metricsBody) {
	t.Helper()
	resp, body := getBody(t, base+"/metrics")
	return resp, decodeMetrics(t, body)
}

// registryMetrics renders the server's registry exactly as GET /metrics
// does, for tests that hold the server but no listener.
func registryMetrics(t *testing.T, s *Server) metricsBody {
	t.Helper()
	body, err := MarshalBody(s.ops.Registry.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return decodeMetrics(t, body)
}

func TestPanicBecomesTypedFault(t *testing.T) {
	s := New(nil, Config{Opts: testOpts()})
	stubFlow(s, "OTA1-A")
	s.doRoute = func(context.Context, *core.Flow, *hetgraph.Graph, RouteRequest, bool) (*RouteResponse, *core.Outcome, error) {
		panic("handler bug")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/route", `{"bench":"OTA1-A"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("panic response is not the typed error shape: %s", body)
	}
	if eb.Error.Kind != fault.ErrPanic.Error() || !strings.Contains(eb.Error.Msg, "handler bug") {
		t.Errorf("error detail %+v, want kind %q carrying the panic value", eb.Error, fault.ErrPanic)
	}

	// The daemon survives: the next request is served normally.
	s.doRoute = func(context.Context, *core.Flow, *hetgraph.Graph, RouteRequest, bool) (*RouteResponse, *core.Outcome, error) {
		return &RouteResponse{Bench: "OTA1-A", Rung: "elite"}, okOutcome(), nil
	}
	resp2, _ := postJSON(t, ts.URL+"/v1/route", `{"bench":"OTA1-A"}`)
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("request after panic got %d, want 200", resp2.StatusCode)
	}
	if _, m := getMetrics(t, ts.URL); m.num(t, "analogfold_serve_panics_total") != 1 {
		t.Errorf("panics metric = %d, want 1", m.num(t, "analogfold_serve_panics_total"))
	}
}

func TestBreakerRoutesDownLadderOverHTTP(t *testing.T) {
	s := New(nil, Config{
		BreakerThreshold: 2, BreakerCooldown: time.Hour, Opts: testOpts(),
	})
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s.brk.now = clk.now
	stubFlow(s, "OTA1-A")
	var modelCalls, ladderCalls int
	var mu sync.Mutex
	failing := true
	s.doGuidance = func(_ context.Context, _ *core.Flow, _ *hetgraph.Graph, _ GuidanceRequest, useModel bool) (*GuidanceResponse, error) {
		mu.Lock()
		defer mu.Unlock()
		if !useModel {
			ladderCalls++
			return &GuidanceResponse{Bench: "OTA1-A", Rung: "uniform", Degraded: true}, nil
		}
		modelCalls++
		if failing {
			return &GuidanceResponse{Bench: "OTA1-A", Rung: "uniform", Degraded: true},
				fault.New(fault.StageRelaxation, fault.ErrExhausted, "injected model fault")
		}
		return &GuidanceResponse{Bench: "OTA1-A", Rung: "elite"}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Two consecutive model faults trip the breaker.
	for i := 0; i < 2; i++ {
		if resp, _ := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"OTA1-A"}`); resp.StatusCode != 200 {
			t.Fatalf("degraded response must still be 200, got %d", resp.StatusCode)
		}
	}
	if st, _, _ := s.brk.snapshot(); st != breakerOpen {
		t.Fatalf("breaker = %s after threshold faults, want open", st)
	}

	// While open: requests go down the ladder, never touching the model, and
	// the response says so.
	_, body := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"OTA1-A"}`)
	var gr GuidanceResponse
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	if gr.Breaker != "open" || !gr.Degraded {
		t.Errorf("open-breaker response breaker=%q degraded=%v, want open/true", gr.Breaker, gr.Degraded)
	}
	if modelCalls != 2 || ladderCalls != 1 {
		t.Errorf("model/ladder calls = %d/%d, want 2/1", modelCalls, ladderCalls)
	}

	// Cooldown elapses, the model heals: the half-open probe closes it.
	mu.Lock()
	failing = false
	mu.Unlock()
	clk.advance(2 * time.Hour)
	_, body = postJSON(t, ts.URL+"/v1/guidance", `{"bench":"OTA1-A"}`)
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	if gr.Rung != "elite" {
		t.Errorf("probe response rung = %q, want elite", gr.Rung)
	}
	if st, _, _ := s.brk.snapshot(); st != breakerClosed {
		t.Errorf("breaker = %s after good probe, want closed", st)
	}
	if _, m := getMetrics(t, ts.URL); m.num(t, "analogfold_serve_breaker_trips_total") != 1 {
		t.Errorf("trips = %d, want 1", m.num(t, "analogfold_serve_breaker_trips_total"))
	}
}

// TestParseHealthReadsServedMetrics pins the cluster prober's view of a
// daemon: ParseHealth on the real /metrics body reads the breaker closed,
// then open once stubbed model faults trip it, and the admission queue depth
// the daemon reports.
func TestParseHealthReadsServedMetrics(t *testing.T) {
	s := New(nil, Config{BreakerThreshold: 2, BreakerCooldown: time.Hour, Opts: testOpts()})
	stubFlow(s, "OTA1-A")
	s.doGuidance = func(_ context.Context, _ *core.Flow, _ *hetgraph.Graph, _ GuidanceRequest, useModel bool) (*GuidanceResponse, error) {
		if !useModel {
			return &GuidanceResponse{Bench: "OTA1-A", Rung: "uniform", Degraded: true}, nil
		}
		return &GuidanceResponse{Bench: "OTA1-A", Rung: "uniform", Degraded: true},
			fault.New(fault.StageRelaxation, fault.ErrExhausted, "injected model fault")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	health := func() Health {
		t.Helper()
		_, body := getBody(t, ts.URL+"/metrics")
		h, ok := ParseHealth(body)
		if !ok {
			t.Fatalf("ParseHealth rejected the served /metrics body:\n%s", body)
		}
		return h
	}
	if h := health(); h.BreakerOpen() || h.Breaker != 0 || h.QueueDepth != 0 {
		t.Fatalf("idle daemon health = %+v, want closed breaker and empty queue", h)
	}
	for i := 0; i < 2; i++ {
		postJSON(t, ts.URL+"/v1/guidance", `{"bench":"OTA1-A"}`)
	}
	if st, _, _ := s.brk.snapshot(); st != breakerOpen {
		t.Fatalf("breaker = %s after threshold faults, want open", st)
	}
	if h := health(); !h.BreakerOpen() || h.Breaker != 2 {
		t.Fatalf("health after trip = %+v, want breaker open (2)", h)
	}
	s.adm.waiting.Add(5)
	defer s.adm.waiting.Add(-5)
	if h := health(); h.QueueDepth != 5 {
		t.Fatalf("health queue depth = %d, want 5", h.QueueDepth)
	}
}

func TestDrainFinishesInflightAndLeaksNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(nil, Config{QueueCapacity: 4, DrainTimeout: 5 * time.Second, Opts: testOpts()})
	stubFlow(s, "OTA1-A")
	started := make(chan struct{}, 8)
	s.doRoute = func(context.Context, *core.Flow, *hetgraph.Graph, RouteRequest, bool) (*RouteResponse, *core.Outcome, error) {
		started <- struct{}{}
		time.Sleep(300 * time.Millisecond)
		return &RouteResponse{Bench: "OTA1-A", Rung: "elite"}, okOutcome(), nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	const n = 3
	results := make(chan int, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, _ := postJSON(t, base+"/v1/route", `{"bench":"OTA1-A"}`)
			results <- resp.StatusCode
		}()
	}
	for i := 0; i < n; i++ {
		<-started
	}
	cancel() // SIGTERM equivalent: drain begins with n requests in flight

	for i := 0; i < n; i++ {
		if st := <-results; st != http.StatusOK {
			t.Errorf("in-flight request during drain got %d, want 200", st)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("drain returned %v, want nil (all in-flight finished)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	// The listener is gone: new connections are refused.
	if _, err := http.Post(base+"/v1/route", "application/json", strings.NewReader(`{}`)); err == nil {
		t.Error("post-drain request succeeded, listener still accepting")
	}
	select {
	case <-s.ops.Drained:
	default:
		t.Error("drain marker not set; /readyz would still report ready")
	}
	http.DefaultClient.CloseIdleConnections()
	waitGoroutines(t, before)
}

func TestReadyzFlipsWhileDraining(t *testing.T) {
	s := New(nil, Config{Opts: testOpts()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200, "/metrics": 200} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	s.ops.markDrained()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining /readyz = %d, want 503", resp.StatusCode)
	}
	// Liveness is unaffected: the process is healthy, just not accepting work.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("draining /healthz = %d, want 200", resp.StatusCode)
	}
}

func TestRequestValidation(t *testing.T) {
	s := New(nil, Config{Opts: testOpts()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/guidance", `{not json`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON = %d, want 400 (%s)", resp.StatusCode, body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Kind != fault.ErrInvalidInput.Error() {
		t.Errorf("malformed JSON error shape = %s", body)
	}

	resp, body = postJSON(t, ts.URL+"/v1/guidance", `{"bench":"OTA9-Z"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown bench = %d, want 400 (%s)", resp.StatusCode, body)
	}

	getResp, err := http.Get(ts.URL + "/v1/guidance")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on work endpoint = %d, want 405", getResp.StatusCode)
	}
}
