package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"analogfold/internal/core"
	"analogfold/internal/dataset"
	"analogfold/internal/serve"
)

// worker is a real nil-model daemon over httptest with shard-request
// accounting — the workhorse of the distributed-generation tests.
type worker struct {
	ts        *httptest.Server
	shardHits atomic.Int64
}

func startWorker(t *testing.T, benches ...string) *worker {
	t.Helper()
	s := serve.New(nil, serve.Config{Opts: testOpts()})
	if err := s.Warm(benches); err != nil {
		t.Fatal(err)
	}
	w := &worker{}
	h := s.Handler()
	w.ts = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/dataset/shard" {
			w.shardHits.Add(1)
		}
		h.ServeHTTP(rw, r)
	}))
	t.Cleanup(w.ts.Close)
	return w
}

// referenceDatasetBytes is the bit-identity oracle: the bytes a plain
// single-process `analogfold dataset` run (same options) writes to disk.
func referenceDatasetBytes(t *testing.T, bench string, samples int, seed int64) []byte {
	t.Helper()
	ckt, prof, err := core.ParseBenchmark(bench)
	if err != nil {
		t.Fatal(err)
	}
	o := testOpts()
	f, err := core.NewFlow(ckt, prof, o)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Generate(context.Background(), f.Grid, dataset.Config{
		Samples: samples, Seed: seed, Workers: o.Workers,
		RouteCfg: o.RouteCfg, IncludeUniform: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ds.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDatasetJobBitIdenticalToSingleProcess is the tentpole's end-to-end pin:
// a dataset generated by sharding across two replica daemons and answered by
// the coordinator is byte-identical to an uninterrupted single-process run.
func TestDatasetJobBitIdenticalToSingleProcess(t *testing.T) {
	w1 := startWorker(t, "OTA1-A")
	w2 := startWorker(t, "OTA1-A")
	c := newTestCoordinator(t, Config{Replicas: []string{w1.ts.URL, w2.ts.URL}})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	want := referenceDatasetBytes(t, "OTA1-A", 6, 7)
	resp, body := postJSON(t, ts.URL+"/v1/dataset",
		`{"bench":"OTA1-A","samples":6,"seed":7,"shard_size":2,"include_uniform":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("distributed dataset not byte-identical to the single-process run")
	}
	if got := resp.Header.Get(HeaderResumed); got != "0" {
		t.Errorf("resumed header = %q, want 0 on a fresh job", got)
	}
	if hits := w1.shardHits.Load() + w2.shardHits.Load(); hits != 3 {
		t.Errorf("replicas saw %d shard requests, want 3 (one per shard)", hits)
	}
	m := &c.met
	if m.dsJobs.Load() != 1 || m.dsCompleted.Load() != 3 || m.dsDispatched.Load() != 3 || m.dsRedispatched.Load() != 0 {
		t.Errorf("dataset metrics = %d jobs, %d/%d/%d completed/dispatched/redispatched, want 1 job, 3/3/0",
			m.dsJobs.Load(), m.dsCompleted.Load(), m.dsDispatched.Load(), m.dsRedispatched.Load())
	}
	if m.dsDispatched.Load() != m.dsCompleted.Load()+m.dsRedispatched.Load() {
		t.Errorf("reconciliation broken: dispatched=%d completed=%d redispatched=%d",
			m.dsDispatched.Load(), m.dsCompleted.Load(), m.dsRedispatched.Load())
	}
}

// TestDatasetJobResumesAcrossCoordinatorRestart: a second coordinator pointed
// at the same journal root answers the same job from the manifest without
// leasing a single shard — the crash-safe restart path.
func TestDatasetJobResumesAcrossCoordinatorRestart(t *testing.T) {
	w := startWorker(t, "OTA1-A")
	dir := t.TempDir()
	req := `{"bench":"OTA1-A","samples":4,"seed":3,"shard_size":2,"include_uniform":true}`

	c1 := newTestCoordinator(t, Config{Replicas: []string{w.ts.URL}, DatasetDir: dir})
	ts1 := httptest.NewServer(c1.Handler())
	resp, first := postJSON(t, ts1.URL+"/v1/dataset", req)
	ts1.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first run status = %d: %s", resp.StatusCode, first)
	}
	if hits := w.shardHits.Load(); hits != 2 {
		t.Fatalf("first run leased %d shards, want 2", hits)
	}

	// "Restart": a brand-new coordinator process over the same journal root.
	c2 := newTestCoordinator(t, Config{Replicas: []string{w.ts.URL}, DatasetDir: dir})
	ts2 := httptest.NewServer(c2.Handler())
	defer ts2.Close()
	resp, second := postJSON(t, ts2.URL+"/v1/dataset", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resumed run status = %d: %s", resp.StatusCode, second)
	}
	if got := resp.Header.Get(HeaderResumed); got != "2" {
		t.Errorf("resumed header = %q, want 2 (every shard from the journal)", got)
	}
	if hits := w.shardHits.Load(); hits != 2 {
		t.Errorf("resumed run leased %d extra shards, want 0", hits-2)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("resumed dataset not byte-identical to the first run")
	}
	if m := &c2.met; m.dsResumed.Load() != 2 || m.dsDispatched.Load() != 0 {
		t.Errorf("resume metrics = %d resumed / %d dispatched, want 2 resumed / 0 dispatched",
			m.dsResumed.Load(), m.dsDispatched.Load())
	}
}

// TestDatasetJobJournalSurvivesPartialFailure: a job that dies partway (its
// only replica starts failing) leaves a journal that a later coordinator
// resumes — only the missing shard is regenerated and the final bytes match
// the single-process oracle exactly.
func TestDatasetJobJournalSurvivesPartialFailure(t *testing.T) {
	w := startWorker(t, "OTA1-A")
	dir := t.TempDir()

	// A flaky front for the real worker: proxies the first two shard leases,
	// then fails every one after.
	var served atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/v1/dataset/shard", func(rw http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if served.Add(1) > 2 {
			http.Error(rw, `{"error":{"kind":"panic","msg":"injected"}}`, http.StatusInternalServerError)
			return
		}
		resp, err := http.Post(w.ts.URL+"/v1/dataset/shard", "application/json", bytes.NewReader(body))
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadGateway)
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(resp.StatusCode)
		rw.Write(b)
	})
	flaky := httptest.NewServer(mux)
	defer flaky.Close()

	req := `{"bench":"OTA1-A","samples":6,"seed":5,"shard_size":2,"include_uniform":true}`
	c1 := newTestCoordinator(t, Config{Replicas: []string{flaky.URL}, DatasetDir: dir})
	ts1 := httptest.NewServer(c1.Handler())
	resp, body := postJSON(t, ts1.URL+"/v1/dataset", req)
	ts1.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("job against the failing replica succeeded: %s", body)
	}
	if m := &c1.met; m.dsCompleted.Load() != 2 {
		t.Fatalf("first run completed %d shards before dying, want 2", m.dsCompleted.Load())
	}

	// The journal must hold exactly the two completed shards.
	jobDir := filepath.Join(dir, "OTA1_A_s5_n6")
	m, err := dataset.LoadManifest(jobDir)
	if err != nil || m == nil {
		t.Fatalf("manifest missing after partial failure: %v", err)
	}
	if len(m.Records) != 2 {
		t.Fatalf("journal holds %d records, want 2", len(m.Records))
	}

	// Recovery: a healthy coordinator over the same journal root.
	c2 := newTestCoordinator(t, Config{Replicas: []string{w.ts.URL}, DatasetDir: dir})
	ts2 := httptest.NewServer(c2.Handler())
	defer ts2.Close()
	before := w.shardHits.Load()
	resp, got := postJSON(t, ts2.URL+"/v1/dataset", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovery run status = %d: %s", resp.StatusCode, got)
	}
	if gotH := resp.Header.Get(HeaderResumed); gotH != "2" {
		t.Errorf("resumed header = %q, want 2", gotH)
	}
	if leased := w.shardHits.Load() - before; leased != 1 {
		t.Errorf("recovery leased %d shards, want only the missing one", leased)
	}
	if want := referenceDatasetBytes(t, "OTA1-A", 6, 5); !bytes.Equal(got, want) {
		t.Fatal("recovered dataset not byte-identical to the single-process oracle")
	}
}

func TestDatasetJobValidation(t *testing.T) {
	c := newTestCoordinator(t, Config{Local: serve.New(nil, serve.Config{Opts: testOpts()})})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"bench":"OTA1-A","samples":0}`, http.StatusBadRequest},
		{`{"bench":"OTA1-A","samples":-3}`, http.StatusBadRequest},
		{`{"bench":"NOPE-Z","samples":4}`, http.StatusBadRequest},
		{`{"bench":`, http.StatusBadRequest},
	} {
		resp, b := postJSON(t, ts.URL+"/v1/dataset", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("body %s: status = %d, want %d: %s", tc.body, resp.StatusCode, tc.want, b)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/dataset")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/dataset = %d, want 405", resp.StatusCode)
	}
}

// TestDatasetCanceledClientIs499 pins the coordinator's error mapping to the
// daemon's: a /v1/dataset job whose client went away answers 499 with the
// typed canceled body, not a gateway timeout.
func TestDatasetCanceledClientIs499(t *testing.T) {
	c := newTestCoordinator(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/dataset",
		strings.NewReader(`{"bench":"OTA1-A","samples":4,"shard_size":2}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, req)
	if rec.Code != 499 {
		t.Fatalf("canceled dataset job status = %d, want 499\n%s", rec.Code, rec.Body)
	}
	var eb serve.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Kind == "" {
		t.Errorf("canceled dataset job body is not the typed error shape: %s", rec.Body)
	}
}

// shardFront is a fake shard producer in front of nothing: always ready,
// with /v1/dataset/shard delegated to fn after the body is drained (the
// server only notices a canceled client once the body is consumed).
func shardFront(t *testing.T, fn http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/v1/dataset/shard", func(rw http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		fn(rw, r)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestDatasetShardHedgeWinsBeforeLeaseExpiry pins the lease path's hedge:
// the shard's first rung stalls, and once the shard has been in flight for
// LeaseTTL/2 a hedge leases it to the live replica, which answers before the
// stalled lease expires. The hedge is a redispatch, not an expiry, and it is
// counted on the replica, not in the proxy path's cluster_hedges_total.
func TestDatasetShardHedgeWinsBeforeLeaseExpiry(t *testing.T) {
	stall := shardFront(t, func(_ http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // hold the lease until the coordinator gives up
	})
	w := startWorker(t)
	c := newTestCoordinator(t, Config{
		Replicas: []string{stall.URL, w.ts.URL},
		LeaseTTL: 8 * time.Second, // hedge at 4s, far above a 2-sample shard
	})
	bench := benchWithShardOnReplica(t, c, c.replicas[0])
	want := referenceDatasetBytes(t, bench, 2, 19)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/dataset",
		`{"bench":"`+bench+`","samples":2,"seed":19,"shard_size":2,"include_uniform":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 via the hedge: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("dataset won by a shard hedge not byte-identical to the oracle")
	}
	m := &c.met
	if m.dsDispatched.Load() != 2 || m.dsCompleted.Load() != 1 || m.dsRedispatched.Load() != 1 {
		t.Errorf("dispatched/completed/redispatched = %d/%d/%d, want 2/1/1",
			m.dsDispatched.Load(), m.dsCompleted.Load(), m.dsRedispatched.Load())
	}
	if m.dsExpired.Load() != 0 {
		t.Errorf("expired = %d, want 0: the hedge must win before the lease expires", m.dsExpired.Load())
	}
	if got := c.replicas[0].hedges.Load(); got != 0 {
		t.Errorf("stalled replica hedges = %d, want 0", got)
	}
	if got := c.replicas[1].hedges.Load(); got != 1 {
		t.Errorf("live replica hedges = %d, want 1", got)
	}
	if got := m.hedges.Load(); got != 0 {
		t.Errorf("cluster_hedges_total = %d, want 0: shard hedges are not proxy hedges", got)
	}
}

// TestDatasetShard400FailsOver: unlike the proxy path, where a 4xx is the
// client's final answer, a shard answered 400 moves on to the next rung —
// the spec is the coordinator's own, so the next replica labels it — and the
// corpus is still byte-identical. A 4xx is not charged to the replica.
func TestDatasetShard400FailsOver(t *testing.T) {
	var hits atomic.Int64
	bad := shardFront(t, func(rw http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		http.Error(rw, `{"error":{"kind":"invalid input","msg":"refused"}}`, http.StatusBadRequest)
	})
	w := startWorker(t)
	c := newTestCoordinator(t, Config{Replicas: []string{bad.URL, w.ts.URL}})
	bench := benchWithShardOnReplica(t, c, c.replicas[0])
	want := referenceDatasetBytes(t, bench, 2, 23)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/dataset",
		`{"bench":"`+bench+`","samples":2,"seed":23,"shard_size":2,"include_uniform":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 via failover: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("dataset after a 400 shard answer not byte-identical to the oracle")
	}
	if hits.Load() != 1 || w.shardHits.Load() != 1 {
		t.Errorf("shard requests bad/live = %d/%d, want 1/1", hits.Load(), w.shardHits.Load())
	}
	m := &c.met
	if m.dsDispatched.Load() != 2 || m.dsCompleted.Load() != 1 || m.dsRedispatched.Load() != 1 {
		t.Errorf("dispatched/completed/redispatched = %d/%d/%d, want 2/1/1",
			m.dsDispatched.Load(), m.dsCompleted.Load(), m.dsRedispatched.Load())
	}
	if f, st := c.replicas[0].failures.Load(), c.replicas[0].getState(); f != 0 || st != stateUp {
		t.Errorf("400 replica failures=%d state=%s, want 0/up", f, st)
	}
}
