//go:build faultinject

package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"analogfold/internal/dataset"
	"analogfold/internal/serve"
)

// shardStub is a scriptable fake shard producer: /readyz follows the healthy
// flag, /v1/dataset/shard runs fn (default: stall until the lease is
// canceled), and every shard request is announced on inFlight first.
type shardStub struct {
	ts       *httptest.Server
	healthy  atomic.Bool
	inFlight chan struct{}
}

func newShardStub(t *testing.T, fn http.HandlerFunc) *shardStub {
	t.Helper()
	st := &shardStub{inFlight: make(chan struct{}, 16)}
	st.healthy.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if st.healthy.Load() {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	mux.HandleFunc("/v1/dataset/shard", func(w http.ResponseWriter, r *http.Request) {
		if fn != nil {
			st.inFlight <- struct{}{}
			fn(w, r)
			return
		}
		// Drain the body like a real daemon would: the server only notices a
		// canceled client (and cancels r.Context()) once the body is consumed.
		io.Copy(io.Discard, r.Body)
		st.inFlight <- struct{}{}
		<-r.Context().Done() // hold the lease until the coordinator gives up
	})
	st.ts = httptest.NewServer(mux)
	t.Cleanup(st.ts.Close)
	return st
}

// reconcile asserts the dataset ledger's chaos invariant at quiescence:
// every shard launch is either the one that completed or a redispatch.
func reconcile(t *testing.T, c *Coordinator) {
	t.Helper()
	m := &c.met
	if m.dsDispatched.Load() != m.dsCompleted.Load()+m.dsRedispatched.Load() {
		t.Errorf("reconciliation broken: dispatched=%d != completed=%d + redispatched=%d",
			m.dsDispatched.Load(), m.dsCompleted.Load(), m.dsRedispatched.Load())
	}
}

// TestChaosDatasetLeaseExpiryFallsBackLocal: the only replica takes every
// lease and never answers. Each lease must expire at the TTL, be re-
// dispatched to the embedded local server, and the finished corpus must still
// be byte-identical to a single-process run — a stalled fleet costs time,
// never samples.
func TestChaosDatasetLeaseExpiryFallsBackLocal(t *testing.T) {
	before := runtime.NumGoroutine()
	stall := newShardStub(t, nil)
	c := newTestCoordinator(t, Config{
		Replicas: []string{stall.ts.URL},
		Local:    serve.New(nil, serve.Config{Opts: testOpts()}),
		LeaseTTL: 200 * time.Millisecond,
	})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	want := referenceDatasetBytes(t, "OTA1-A", 4, 9)
	resp, body := postJSON(t, ts.URL+"/v1/dataset",
		`{"bench":"OTA1-A","samples":4,"seed":9,"shard_size":2,"include_uniform":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("dataset assembled through expired leases not byte-identical")
	}
	m := &c.met
	if m.dsExpired.Load() != 2 || m.dsLocal.Load() != 2 {
		t.Errorf("expired=%d local=%d, want 2/2 (every lease timed out, every shard labeled locally)",
			m.dsExpired.Load(), m.dsLocal.Load())
	}
	if m.dsDispatched.Load() != 4 || m.dsCompleted.Load() != 2 || m.dsRedispatched.Load() != 2 {
		t.Errorf("dispatched/completed/redispatched = %d/%d/%d, want 4/2/2",
			m.dsDispatched.Load(), m.dsCompleted.Load(), m.dsRedispatched.Load())
	}
	reconcile(t, c)
	ts.Close()
	c.stopProbers()
	http.DefaultClient.CloseIdleConnections()
	waitGoroutines(t, before)
}

// TestChaosDatasetKillMidShardRedispatches: the replica holding a lease is
// hard-killed mid-shard. The lease must be forfeited immediately (transport
// error, not TTL), the shard re-dispatched down the ladder, and the final
// bytes must match the oracle.
func TestChaosDatasetKillMidShardRedispatches(t *testing.T) {
	before := runtime.NumGoroutine()
	stall := newShardStub(t, nil)
	w := startWorker(t)
	c := newTestCoordinator(t, Config{
		Replicas: []string{stall.ts.URL, w.ts.URL},
		LeaseTTL: 30 * time.Second,
	})
	bench := benchWithShardOnReplica(t, c, c.replicas[0])
	want := referenceDatasetBytes(t, bench, 2, 11)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	done := make(chan struct{})
	var status int
	var body []byte
	go func() {
		defer close(done)
		resp, b := postJSON(t, ts.URL+"/v1/dataset",
			`{"bench":"`+bench+`","samples":2,"seed":11,"shard_size":2,"include_uniform":true}`)
		status, body = resp.StatusCode, b
	}()
	<-stall.inFlight                  // the stub holds the lease right now
	stall.ts.CloseClientConnections() // kill the holder mid-shard
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("dataset job never completed after mid-shard kill")
	}
	if status != http.StatusOK {
		t.Fatalf("status = %d after mid-shard kill, want 200 via redispatch: %s", status, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("redispatched dataset not byte-identical to the oracle")
	}
	m := &c.met
	if m.dsDispatched.Load() != 2 || m.dsCompleted.Load() != 1 || m.dsRedispatched.Load() != 1 {
		t.Errorf("dispatched/completed/redispatched = %d/%d/%d, want 2/1/1",
			m.dsDispatched.Load(), m.dsCompleted.Load(), m.dsRedispatched.Load())
	}
	reconcile(t, c)
	if st := c.replicas[0].getState(); st != stateDown {
		t.Errorf("killed holder graded %s, want down", st)
	}
	ts.Close()
	c.stopProbers()
	http.DefaultClient.CloseIdleConnections()
	waitGoroutines(t, before)
}

// TestChaosDatasetHeartbeatExpiresStalledLease: the lease holder stays
// connected but its process goes unhealthy mid-lease. With an hour-long TTL
// only the heartbeat (the health prober) can forfeit the lease — the job must
// still finish promptly on the other replica.
func TestChaosDatasetHeartbeatExpiresStalledLease(t *testing.T) {
	stall := newShardStub(t, nil)
	w := startWorker(t)
	c := newTestCoordinator(t, Config{
		Replicas:      []string{stall.ts.URL, w.ts.URL},
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  time.Second,
		LeaseTTL:      time.Hour,
	})
	bench := benchWithShardOnReplica(t, c, c.replicas[0])
	want := referenceDatasetBytes(t, bench, 2, 13)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	done := make(chan struct{})
	var status int
	var body []byte
	go func() {
		defer close(done)
		resp, b := postJSON(t, ts.URL+"/v1/dataset",
			`{"bench":"`+bench+`","samples":2,"seed":13,"shard_size":2,"include_uniform":true}`)
		status, body = resp.StatusCode, b
	}()
	<-stall.inFlight           // the stub holds the lease right now
	stall.healthy.Store(false) // its heartbeat goes dark
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("dataset job never completed; heartbeat expiry did not fire")
	}
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200 via heartbeat-driven redispatch: %s", status, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("dataset after heartbeat expiry not byte-identical to the oracle")
	}
	m := &c.met
	if m.dsExpired.Load() < 1 {
		t.Errorf("expired = %d, want >= 1 (the heartbeat forfeited the lease)", m.dsExpired.Load())
	}
	if m.dsRedispatched.Load() < 1 {
		t.Errorf("redispatched = %d, want >= 1", m.dsRedispatched.Load())
	}
	reconcile(t, c)
}

// TestChaosDatasetCorruptAnswerRedispatches: a replica answers promptly with
// well-formed JSON whose digest does not verify. The coordinator must refuse
// the bytes, count the corruption, and recompute the shard elsewhere — the
// corpus can never contain unverified samples.
func TestChaosDatasetCorruptAnswerRedispatches(t *testing.T) {
	forged := newShardStub(t, func(w http.ResponseWriter, r *http.Request) {
		var req serve.ShardRequest
		json.NewDecoder(r.Body).Decode(&req)
		// Structurally valid (entries+dropped == samples) but digest-forged.
		sr := dataset.ShardResult{
			Circuit: "OTA1", NumNets: 1, CMax: 1,
			Index: req.Index, Lo: req.Lo, Hi: req.Hi,
			Dropped: req.Hi - req.Lo, Digest: "fnv1a:00000000deadbeef",
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(&sr)
	})
	w := startWorker(t)
	c := newTestCoordinator(t, Config{
		Replicas: []string{forged.ts.URL, w.ts.URL},
		LeaseTTL: 30 * time.Second,
	})
	bench := benchWithShardOnReplica(t, c, c.replicas[0])
	want := referenceDatasetBytes(t, bench, 2, 17)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/dataset",
		`{"bench":"`+bench+`","samples":2,"seed":17,"shard_size":2,"include_uniform":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 via redispatch: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("dataset after corrupt answer not byte-identical to the oracle")
	}
	m := &c.met
	if m.dsCorrupt.Load() != 1 {
		t.Errorf("corrupt = %d, want 1", m.dsCorrupt.Load())
	}
	if m.dsDispatched.Load() != 2 || m.dsCompleted.Load() != 1 || m.dsRedispatched.Load() != 1 {
		t.Errorf("dispatched/completed/redispatched = %d/%d/%d, want 2/1/1",
			m.dsDispatched.Load(), m.dsCompleted.Load(), m.dsRedispatched.Load())
	}
	reconcile(t, c)
	// An application-level corrupt answer is not unreachability: the forger
	// stays in the ladder for the prober to grade, exactly like a 5xx.
	if st := c.replicas[0].getState(); st == stateDown {
		t.Error("corrupt answer graded the replica down; only transport failures may")
	}
}
