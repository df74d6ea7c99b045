//go:build faultinject

package serve

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"analogfold/internal/fault/inject"
)

// TestChaosModelFaultsTripBreakerUnderLoad is the daemon's headline chaos
// scenario: every 3DGNN forward pass is poisoned with NaN while a dozen
// concurrent clients hammer /v1/guidance. The daemon must (a) answer every
// request with either a typed error or a well-formed degraded result, (b)
// trip the circuit breaker after the threshold of consecutive model faults,
// (c) drain cleanly on shutdown with no leaked goroutines.
func TestChaosModelFaultsTripBreakerUnderLoad(t *testing.T) {
	defer inject.Reset()
	// The fixture must train BEFORE the forward pass is poisoned — injection
	// would otherwise destroy training itself and test nothing about serving.
	m := trainedModel(t)
	before := runtime.NumGoroutine()
	inject.Configure(inject.Schedule{Rate: map[inject.Point]float64{inject.ModelNaN: 1}})

	s := New(m, Config{
		QueueCapacity: 8, QueueBacklog: 16,
		AdmissionTimeout: 5 * time.Second,
		RequestTimeout:   2 * time.Minute,
		DrainTimeout:     10 * time.Second,
		BreakerThreshold: 3, BreakerCooldown: time.Hour,
		Opts: testOpts(),
	})
	if err := s.Warm([]string{"OTA1-A"}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	const clients = 12 // ≥ 8 concurrent clients per the robustness contract
	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(base+"/v1/guidance", "application/json",
				strings.NewReader(`{"bench":"OTA1-A"}`))
			if err != nil {
				t.Errorf("client transport error: %v", err)
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			results <- result{resp.StatusCode, b}
		}()
	}
	wg.Wait()
	close(results)

	if inject.Calls(inject.ModelNaN) == 0 {
		t.Fatal("injection point never consulted; chaos test is vacuous")
	}

	got := 0
	for r := range results {
		got++
		switch r.status {
		case http.StatusOK:
			// Degraded but well-formed: uniform-rung guidance for every net.
			var gr GuidanceResponse
			if err := json.Unmarshal(r.body, &gr); err != nil {
				t.Fatalf("200 body is not a guidance response: %v\n%s", err, r.body)
			}
			if !gr.Degraded {
				t.Errorf("poisoned model produced a non-degraded response: %s", r.body)
			}
			if len(gr.Guides) == 0 || len(gr.Guides[0]) == 0 {
				t.Errorf("degraded response carries no guidance: %s", r.body)
			}
			for _, set := range gr.Guides {
				for _, v := range set {
					for _, x := range v {
						if !(x > 0 && x < gr.CMax) {
							t.Fatalf("degraded guidance element %v outside (0, %v)", x, gr.CMax)
						}
					}
				}
			}
		default:
			// Anything else must be the typed-error shape.
			var eb ErrorBody
			if err := json.Unmarshal(r.body, &eb); err != nil || eb.Error.Kind == "" {
				t.Errorf("status %d with untyped body: %s", r.status, r.body)
			}
		}
	}
	if got != clients {
		t.Fatalf("got %d responses for %d clients", got, clients)
	}

	// The consecutive model faults must have tripped the breaker.
	st, _, trips := s.brk.snapshot()
	if st != breakerOpen || trips < 1 {
		t.Errorf("breaker = %s trips=%d after sustained model faults, want open/>=1", st, trips)
	}
	mb := registryMetrics(t, s)
	accepted, shed := mb.num(t, "analogfold_serve_accepted_total"), mb.num(t, "analogfold_serve_shed_total")
	if accepted+shed != clients {
		t.Errorf("metrics accounting accepted=%d shed=%d (clients=%d)", accepted, shed, clients)
	}
	if mb.num(t, "analogfold_serve_degraded_total") == 0 {
		t.Error("degraded counter is zero under a fully poisoned model")
	}

	// While the breaker is open the model path is bypassed entirely: the
	// injection call count must not grow.
	callsBefore := inject.Calls(inject.ModelNaN)
	resp, err := http.Post(base+"/v1/guidance", "application/json",
		strings.NewReader(`{"bench":"OTA1-A"}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var gr GuidanceResponse
	if err := json.Unmarshal(b, &gr); err != nil || gr.Breaker != "open" {
		t.Errorf("open-breaker response = %s, want breaker=open", b)
	}
	if inject.Calls(inject.ModelNaN) != callsBefore {
		t.Error("open breaker still reached the model forward pass")
	}

	// SIGTERM-equivalent drain: Serve returns nil and nothing leaks.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("drain returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	http.DefaultClient.CloseIdleConnections()
	waitGoroutines(t, before)
}

// TestChaosRouteDegradesNotFails: a full /v1/route request under a poisoned
// model must still return a routed result on a lower rung, with the recovery
// events on the wire.
func TestChaosRouteDegradesNotFails(t *testing.T) {
	defer inject.Reset()
	m := trainedModel(t)
	inject.Configure(inject.Schedule{Rate: map[inject.Point]float64{inject.ModelNaN: 1}})

	s := New(m, Config{Opts: testOpts(), BreakerThreshold: 100})
	ts := newLocalServer(t, s)
	defer ts.close()

	resp, body := postJSON(t, ts.url+"/v1/route", `{"bench":"OTA1-A"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poisoned route = %d, want 200 (degraded): %s", resp.StatusCode, body)
	}
	var rr RouteResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Degraded || rr.Rung == string("elite") {
		t.Errorf("rung=%q degraded=%v, want a lower rung", rr.Rung, rr.Degraded)
	}
	if rr.WirelengthNm <= 0 || rr.BandwidthMHz <= 0 {
		t.Errorf("degraded route not actually routed/evaluated: %s", body)
	}
	if len(rr.Events) == 0 {
		t.Errorf("no degradation events on the wire: %s", body)
	}
}

// newLocalServer wraps httptest-like lifecycle around Server.Serve so chaos
// tests exercise the real drain path.
type localServer struct {
	url    string
	cancel context.CancelFunc
	done   chan error
}

func newLocalServer(t *testing.T, s *Server) *localServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	return &localServer{url: "http://" + ln.Addr().String(), cancel: cancel, done: done}
}

func (l *localServer) close() {
	l.cancel()
	<-l.done
}
