//go:build faultinject

package cluster

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"analogfold/internal/serve"
)

// chaosReplica wraps a real nil-model daemon with a kill switch: cancel()
// starts its drain (graceful or hard depending on its DrainTimeout), done
// reports when Serve has fully returned.
type chaosReplica struct {
	url    string
	cancel context.CancelFunc
	done   chan error
}

func startChaosReplica(t *testing.T, benches []string, drain time.Duration) *chaosReplica {
	t.Helper()
	s := serve.New(nil, serve.Config{
		QueueCapacity: 8, QueueBacklog: 32,
		AdmissionTimeout: 5 * time.Second,
		DrainTimeout:     drain,
		Opts:             testOpts(),
	})
	if err := s.Warm(benches); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	return &chaosReplica{url: "http://" + ln.Addr().String(), cancel: cancel, done: done}
}

// referenceBodies serves each bench once from an isolated single daemon — the
// bit-identity oracle every coordinator-mediated answer is checked against.
func referenceBodies(t *testing.T, benches []string) map[string]string {
	t.Helper()
	ref := serve.New(nil, serve.Config{Opts: testOpts()})
	if err := ref.Warm(benches); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(ref.Handler())
	defer ts.Close()
	out := make(map[string]string, len(benches))
	for _, b := range benches {
		resp, body := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"`+b+`"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reference daemon refused %s: %d %s", b, resp.StatusCode, body)
		}
		out[b] = string(body)
	}
	return out
}

// TestChaosReplicaKillsUnderLoad is the cluster's headline scenario: three
// live nil-model replicas take sustained concurrent load while one is killed
// gracefully mid-drain and another is hard-killed (1ms drain → connections
// reset mid-request). The contract under all of it:
//
//   - zero client transport errors — resets stop at the coordinator;
//   - every answer is bit-identical to the single-daemon reference (a healthy
//     replica existed throughout, and nil-model bodies are deterministic);
//   - no request is lost or double-answered;
//   - the coordinator's accounting reconciles: accepted == answered + shed;
//   - after coordinator drain, the goroutine set returns to baseline.
func TestChaosReplicaKillsUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is not -short")
	}
	before := runtime.NumGoroutine()
	benches := []string{"OTA1-A", "OTA2-A", "OTA3-A", "OTA1-B", "OTA2-B", "OTA3-B"}
	want := referenceBodies(t, benches)

	graceful := startChaosReplica(t, benches, 10*time.Second) // killed mid-drain
	hard := startChaosReplica(t, benches, time.Millisecond)   // killed hard: resets in-flight
	steady := startChaosReplica(t, benches, 10*time.Second)   // survives

	local := serve.New(nil, serve.Config{Opts: testOpts()})
	if err := local.Warm(benches); err != nil {
		t.Fatal(err)
	}
	coord := New(Config{
		Replicas:       []string{graceful.url, hard.url, steady.url},
		ProbeInterval:  20 * time.Millisecond,
		ProbeTimeout:   time.Second,
		AttemptTimeout: 10 * time.Second,
		HedgeAfter:     100 * time.Millisecond,
		RetryBackoff:   time.Millisecond,
		DrainTimeout:   10 * time.Second,
		Local:          local,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cctx, ccancel := context.WithCancel(context.Background())
	coordDone := make(chan error, 1)
	go func() { coordDone <- coord.Serve(cctx, ln) }()
	base := "http://" + ln.Addr().String()

	// Sustained load: 4 clients × 40 sequential requests over the kill window.
	const clients, perClient = 4, 40
	type result struct {
		bench, body string
		status      int
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results []result
	)
	client := &http.Client{Timeout: 30 * time.Second}
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				bench := benches[(ci+i)%len(benches)]
				resp, err := client.Post(base+"/v1/guidance", "application/json",
					strings.NewReader(`{"bench":"`+bench+`"}`))
				if err != nil {
					t.Errorf("client transport error (must never escape the coordinator): %v", err)
					return
				}
				b, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil {
					t.Errorf("client read error: %v", rerr)
					return
				}
				mu.Lock()
				results = append(results, result{bench: bench, body: string(b), status: resp.StatusCode})
				mu.Unlock()
				time.Sleep(3 * time.Millisecond)
			}
		}(ci)
	}

	// Kill schedule, landing inside the load window.
	time.Sleep(100 * time.Millisecond)
	graceful.cancel() // graceful drain with requests in flight
	time.Sleep(150 * time.Millisecond)
	hard.cancel() // hard kill: in-flight connections reset

	wg.Wait()
	for _, r := range []*chaosReplica{graceful, hard} {
		select {
		case <-r.done:
		case <-time.After(15 * time.Second):
			t.Fatal("killed replica's Serve never returned")
		}
	}

	// Every request answered exactly once, bit-identical to the reference.
	if len(results) != clients*perClient {
		t.Fatalf("%d results for %d requests: lost or duplicated answers",
			len(results), clients*perClient)
	}
	for i, r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("result %d: status %d (a healthy replica existed throughout): %s",
				i, r.status, r.body)
		}
		if r.body != want[r.bench] {
			t.Fatalf("result %d (%s) not bit-identical to single-daemon reference:\n got: %s\nwant: %s",
				i, r.bench, r.body, want[r.bench])
		}
	}

	// The kills must actually have been observed: both dead replicas graded
	// down, the survivor still owning traffic.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if coord.replicas[0].getState() == stateDown && coord.replicas[1].getState() == stateDown {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st0, st1 := coord.replicas[0].getState(), coord.replicas[1].getState(); st0 != stateDown || st1 != stateDown {
		t.Errorf("killed replicas graded %s/%s, want down/down", st0, st1)
	}
	if coord.replicas[2].requests.Load() == 0 {
		t.Error("surviving replica served nothing; kills were not exercised")
	}

	// Post-kill burst on benches that belonged to the dead replicas: the
	// failover ladder must re-home them onto the survivor, bodies unchanged.
	for _, bench := range benches {
		resp, body := postJSON(t, base+"/v1/guidance", `{"bench":"`+bench+`"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-kill %s = %d: %s", bench, resp.StatusCode, body)
		}
		if string(body) != want[bench] {
			t.Fatalf("post-kill %s body diverged from reference", bench)
		}
		if rep := resp.Header.Get(HeaderReplica); rep != steady.url {
			t.Errorf("post-kill %s served by %q, want the survivor %q", bench, rep, steady.url)
		}
	}

	// Accounting reconciles exactly at quiescence.
	m := &coord.met
	if m.accepted.Load() != m.answered.Load()+m.shed.Load() {
		t.Errorf("accepted=%d != answered=%d + shed=%d", m.accepted.Load(), m.answered.Load(), m.shed.Load())
	}
	if wantTotal := int64(clients*perClient + len(benches)); m.accepted.Load() != wantTotal {
		t.Errorf("accepted=%d, want %d", m.accepted.Load(), wantTotal)
	}
	if m.shed.Load() != 0 {
		t.Errorf("shed=%d with a healthy replica present throughout, want 0", m.shed.Load())
	}

	// Coordinator drain: Serve returns nil and the goroutine set (probers,
	// attempt goroutines, transport conns) returns to baseline.
	ccancel()
	select {
	case err := <-coordDone:
		if err != nil {
			t.Errorf("coordinator drain returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("coordinator Serve never returned after drain")
	}
	steady.cancel()
	<-steady.done
	client.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	waitGoroutines(t, before)
}

// TestChaosKillMidRequestFailsOver pins the mid-request kill precisely: the
// primary replica (a scriptable stub) is killed while it holds the request,
// and the client still receives the real daemon's bit-identical answer.
func TestChaosKillMidRequestFailsOver(t *testing.T) {
	real := startChaosReplica(t, []string{"OTA1-A"}, 10*time.Second)
	defer func() { real.cancel(); <-real.done }()

	inFlight := make(chan struct{}, 4)
	stall := newStubReplica(t, func(w http.ResponseWriter, req *http.Request) {
		inFlight <- struct{}{}
		select { // hold the request until the kill severs the connection
		case <-req.Context().Done():
		case <-time.After(10 * time.Second):
		}
	})
	c := newTestCoordinator(t, Config{
		Replicas:     []string{stall.ts.URL, real.url},
		RetryBackoff: time.Millisecond,
	})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	// Pin the stub as primary: pick a bench that rendezvous-hashes to it.
	bench := benchWithFirstChoice(t, c, c.replicas[0])
	want := referenceBodies(t, []string{bench})

	done := make(chan struct{})
	var status int
	var body []byte
	go func() {
		defer close(done)
		resp, b := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"`+bench+`"}`)
		status, body = resp.StatusCode, b
	}()
	<-inFlight                        // the stub holds the request right now
	stall.ts.CloseClientConnections() // kill mid-request
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("request never completed after mid-request kill")
	}
	if status != http.StatusOK {
		t.Fatalf("status = %d after mid-request kill, want 200 via failover: %s", status, body)
	}
	if string(body) != want[bench] {
		t.Fatalf("failover body not bit-identical:\n got: %s\nwant: %s", body, want[bench])
	}
	if c.met.failovers.Load() == 0 {
		t.Error("failover counter is zero; the kill was not exercised")
	}
}

// TestChaosKillMidHedge kills the stalled primary while its hedge is already
// racing: the hedge must win cleanly — one answer, bit-identical, no error
// surfacing to the client.
func TestChaosKillMidHedge(t *testing.T) {
	real := startChaosReplica(t, []string{"OTA1-A"}, 10*time.Second)
	defer func() { real.cancel(); <-real.done }()

	inFlight := make(chan struct{}, 4)
	stall := newStubReplica(t, func(w http.ResponseWriter, req *http.Request) {
		inFlight <- struct{}{}
		select {
		case <-req.Context().Done():
		case <-time.After(10 * time.Second):
		}
	})
	c := newTestCoordinator(t, Config{
		Replicas:   []string{stall.ts.URL, real.url},
		HedgeAfter: 30 * time.Millisecond,
		MaxHedges:  1,
	})
	// Pin the stub as primary by choosing a bench that hashes to it; with two
	// replicas one of the 20 standard benches always does.
	bench := benchWithFirstChoice(t, c, c.replicas[0])
	want := referenceBodies(t, []string{bench})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	done := make(chan struct{})
	var status int
	var body []byte
	go func() {
		defer close(done)
		resp, b := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"`+bench+`"}`)
		status, body = resp.StatusCode, b
	}()
	<-inFlight                        // primary attempt is held by the stub
	time.Sleep(60 * time.Millisecond) // hedge budget elapses; hedge launches
	stall.ts.CloseClientConnections() // kill the primary mid-hedge
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("request never completed after mid-hedge kill")
	}
	if status != http.StatusOK {
		t.Fatalf("status = %d after mid-hedge kill, want 200: %s", status, body)
	}
	if string(body) != want[bench] {
		t.Fatalf("mid-hedge body not bit-identical to reference")
	}
	if c.met.hedges.Load() != 1 {
		t.Errorf("hedges = %d, want 1 (the race was exercised)", c.met.hedges.Load())
	}
	m := &c.met
	if m.accepted.Load() != 1 || m.answered.Load() != 1 || m.shed.Load() != 0 {
		t.Errorf("accounting accepted=%d answered=%d shed=%d, want 1/1/0", m.accepted.Load(), m.answered.Load(), m.shed.Load())
	}
}
