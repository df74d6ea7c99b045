package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"analogfold/internal/core"
	"analogfold/internal/fault"
	"analogfold/internal/hetgraph"
	"analogfold/internal/obs"
)

func TestRetryAfterJitterDeterministicSpread(t *testing.T) {
	a := newAdmission(1, 1, time.Second)
	// Same hash → same hint, every time.
	for _, h := range []uint64{0, 1, 7, 1 << 40, ^uint64(0)} {
		first := a.retryAfterSeconds(h)
		for i := 0; i < 3; i++ {
			if got := a.retryAfterSeconds(h); got != first {
				t.Fatalf("retryAfterSeconds(%d) flapped: %d then %d", h, first, got)
			}
		}
		// Bounded: [base, base+spread] with base=1, spread=3 here.
		if first < 1 || first > 4 {
			t.Fatalf("retryAfterSeconds(%d) = %d, want within [1,4]", h, first)
		}
	}
	// The jitter actually spreads: distinct hash residues give distinct hints.
	seen := make(map[int]bool)
	for h := uint64(0); h < 8; h++ {
		seen[a.retryAfterSeconds(h)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("jitter produced a single hint %v — thundering herd not spread", seen)
	}

	// A longer admission timeout raises the floor and widens the spread.
	a = newAdmission(1, 1, 5*time.Second)
	for h := uint64(0); h < 16; h++ {
		got := a.retryAfterSeconds(h)
		if got < 5 || got > 10 {
			t.Fatalf("retryAfterSeconds(%d) = %d with 5s timeout, want within [5,10]", h, got)
		}
	}
}

func TestShedRetryAfterMatchesRequestHashOverHTTP(t *testing.T) {
	s := New(nil, Config{
		QueueCapacity: 1, QueueBacklog: 1,
		AdmissionTimeout: 200 * time.Millisecond,
		Opts:             testOpts(),
	})
	stubFlow(s, "OTA1-A")
	gate := make(chan struct{})
	started := make(chan struct{}, 4)
	s.doRoute = func(context.Context, *core.Flow, *hetgraph.Graph, RouteRequest, bool) (*RouteResponse, *core.Outcome, error) {
		started <- struct{}{}
		<-gate
		return &RouteResponse{Bench: "OTA1-A", Rung: "elite"}, okOutcome(), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the one executing slot and the one backlog slot so the probe
	// bodies below shed instantly and deterministically.
	blocked := make(chan int, 2)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/route", `{"bench":"OTA1-A"}`)
		blocked <- resp.StatusCode
	}()
	<-started
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/route", `{"bench":"OTA1-A","seed":9}`)
		blocked <- resp.StatusCode
	}()
	// Give the second request time to enter the waiting room.
	time.Sleep(50 * time.Millisecond)

	for _, body := range []string{
		`{"bench":"OTA1-A","seed":101}`,
		`{"bench":"OTA1-A","seed":202}`,
		`{"bench":"OTA1-A","seed":303}`,
	} {
		resp, _ := postJSON(t, ts.URL+"/v1/route", body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("probe body %s got status %d, want 503", body, resp.StatusCode)
		}
		want := 1 + int(obs.FNV64a([]byte(body))%4) // base 1s, spread 3
		got, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || got != want {
			t.Errorf("Retry-After for %s = %q, want %d (hash-jittered)", body, resp.Header.Get("Retry-After"), want)
		}
	}
	close(gate)
	<-blocked
	<-blocked
}

func TestRequestIDEchoedAndGenerated(t *testing.T) {
	s := New(nil, Config{Opts: testOpts()})
	stubFlow(s, "OTA1-A")
	var seen string
	var mu sync.Mutex
	s.doGuidance = func(ctx context.Context, _ *core.Flow, _ *hetgraph.Graph, _ GuidanceRequest, _ bool) (*GuidanceResponse, error) {
		mu.Lock()
		seen = obs.RequestID(ctx)
		mu.Unlock()
		return &GuidanceResponse{Bench: "OTA1-A", Rung: "elite"}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A caller-supplied ID is adopted: echoed on the wire and visible to the
	// pipeline context.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/guidance",
		strings.NewReader(`{"bench":"OTA1-A"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderRequestID, "coordinator-rid-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(HeaderRequestID); got != "coordinator-rid-7" {
		t.Errorf("echoed X-Request-ID = %q, want coordinator-rid-7", got)
	}
	mu.Lock()
	if seen != "coordinator-rid-7" {
		t.Errorf("pipeline context request ID = %q, want coordinator-rid-7", seen)
	}
	mu.Unlock()

	// Without one, the daemon mints an ID and still echoes it.
	resp2, _ := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"OTA1-A"}`)
	if got := resp2.Header.Get(HeaderRequestID); len(got) != 16 {
		t.Errorf("generated X-Request-ID = %q, want 16 hex digits", got)
	}
}

// TestHalfOpenLosersServedFromLadderOverHTTP is the HTTP face of the
// half-open single-probe contract: with the probe in flight, concurrent
// requests must be answered from the degradation ladder (breaker "open" on
// the wire) rather than piling onto the recovering model.
func TestHalfOpenLosersServedFromLadderOverHTTP(t *testing.T) {
	s := New(nil, Config{
		QueueCapacity: 16, BreakerThreshold: 1, BreakerCooldown: time.Minute,
		Opts: testOpts(),
	})
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s.brk.now = clk.now
	stubFlow(s, "OTA1-A")

	gate := make(chan struct{})
	probeStarted := make(chan struct{}, 1)
	var mu sync.Mutex
	modelCalls := 0
	failing := true
	s.doGuidance = func(_ context.Context, _ *core.Flow, _ *hetgraph.Graph, _ GuidanceRequest, useModel bool) (*GuidanceResponse, error) {
		if !useModel {
			return &GuidanceResponse{Bench: "OTA1-A", Rung: "uniform", Degraded: true}, nil
		}
		mu.Lock()
		modelCalls++
		fail := failing
		mu.Unlock()
		if fail {
			return &GuidanceResponse{Bench: "OTA1-A", Rung: "uniform", Degraded: true},
				fault.New(fault.StageRelaxation, fault.ErrExhausted, "injected model fault")
		}
		probeStarted <- struct{}{}
		<-gate // hold the half-open probe in flight
		return &GuidanceResponse{Bench: "OTA1-A", Rung: "elite"}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Trip the breaker, heal the model, elapse the cooldown.
	postJSON(t, ts.URL+"/v1/guidance", `{"bench":"OTA1-A"}`)
	if st, _, _ := s.brk.snapshot(); st != breakerOpen {
		t.Fatalf("breaker = %s, want open", st)
	}
	mu.Lock()
	failing = false
	mu.Unlock()
	clk.advance(2 * time.Minute)

	// Launch the probe, then a convoy of losers while it is in flight.
	probeResp := make(chan *GuidanceResponse, 1)
	go func() {
		_, body := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"OTA1-A"}`)
		var gr GuidanceResponse
		json.Unmarshal(body, &gr)
		probeResp <- &gr
	}()
	<-probeStarted
	const losers = 6
	for i := 0; i < losers; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"OTA1-A"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("loser %d got status %d, want 200 from the ladder", i, resp.StatusCode)
		}
		var gr GuidanceResponse
		if err := json.Unmarshal(body, &gr); err != nil {
			t.Fatal(err)
		}
		if gr.Breaker != "open" || !gr.Degraded {
			t.Errorf("loser %d breaker=%q degraded=%v, want open/true (ladder, not pile-on)",
				i, gr.Breaker, gr.Degraded)
		}
	}
	mu.Lock()
	if modelCalls != 2 { // the tripping fault + the single probe
		t.Errorf("model path reached %d times, want 2 (no concurrent pile-on)", modelCalls)
	}
	mu.Unlock()

	close(gate)
	if gr := <-probeResp; gr.Rung != "elite" {
		t.Errorf("probe response rung = %q, want elite", gr.Rung)
	}
	if st, _, _ := s.brk.snapshot(); st != breakerClosed {
		t.Errorf("breaker = %s after successful probe, want closed", st)
	}
}
