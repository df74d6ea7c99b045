package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"analogfold/internal/core"
	"analogfold/internal/obs"
	"analogfold/internal/serve"
)

// benchWithShardOnReplica finds a benchmark whose single-shard dataset job
// (shard index 0) rendezvous-ranks the wanted replica first. Ports vary per
// run; 20 benches make a miss astronomically unlikely. Shared with the
// faultinject chaos suite.
func benchWithShardOnReplica(t *testing.T, c *Coordinator, want *replica) string {
	t.Helper()
	for _, ckt := range []string{"OTA1", "OTA2", "OTA3", "OTA4", "OTA5"} {
		for _, prof := range []string{"A", "B", "C", "D"} {
			bench := ckt + "-" + prof
			cir, p, err := core.ParseBenchmark(bench)
			if err != nil {
				continue
			}
			if c.candidates(shardKeyFor(core.NetlistDigest(cir, p), 0))[0].url == want.url {
				return bench
			}
		}
	}
	t.Skip("no benchmark's shard hashed to the wanted replica (p≈2^-20); rerun")
	return ""
}

// syncBuf is a goroutine-safe byte buffer for capturing slog output.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// tracedWorker is a real nil-model daemon with telemetry enabled — it joins
// inbound traces and exports its span subtree in response trailers — plus
// request-ID capture on the shard path.
type tracedWorker struct {
	ts       *httptest.Server
	shardRID atomic.Value // string: last X-Request-ID seen on /v1/dataset/shard
}

func startTracedWorker(t *testing.T, seed int64, lg *slog.Logger, benches ...string) *tracedWorker {
	t.Helper()
	s := serve.New(nil, serve.Config{
		Opts:      testOpts(),
		Telemetry: obs.New(obs.Options{Seed: seed}),
		Logger:    lg,
	})
	if err := s.Warm(benches); err != nil {
		t.Fatal(err)
	}
	w := &tracedWorker{}
	h := s.Handler()
	w.ts = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/dataset/shard" {
			w.shardRID.Store(r.Header.Get(serve.HeaderRequestID))
		}
		h.ServeHTTP(rw, r)
	}))
	t.Cleanup(w.ts.Close)
	return w
}

func httpGet(t *testing.T, url string) []byte {
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, b)
	}
	return b
}

// coordinatorFlight fetches and decodes the coordinator's /debug/flight ring.
func coordinatorFlight(t *testing.T, base string) serve.FlightSnapshot {
	t.Helper()
	var snap serve.FlightSnapshot
	if err := json.Unmarshal(httpGet(t, base+"/debug/flight"), &snap); err != nil {
		t.Fatalf("flight snapshot not JSON: %v", err)
	}
	return snap
}

// assertDescendants walks every imported (Proc != "") span in the snapshot up
// its parent chain and asserts it terminates at a coordinator-local root named
// cluster.proxy or cluster.dataset with the same trace ID — the merged-trace
// invariant. Returns how many imported spans were checked.
func assertDescendants(t *testing.T, snap serve.FlightSnapshot) int {
	t.Helper()
	byID := make(map[uint64]obs.FlightEvent, len(snap.Events))
	for _, e := range snap.Events {
		if e.Phase == obs.PhaseSpan && e.ID != 0 {
			if _, dup := byID[e.ID]; dup {
				t.Errorf("duplicate span ID %d in merged trace (remap failed?)", e.ID)
			}
			byID[e.ID] = e
		}
	}
	checked := 0
	for _, e := range snap.Events {
		if e.Phase != obs.PhaseSpan || e.Proc == "" {
			continue
		}
		checked++
		cur, hops := e, 0
		for {
			if hops++; hops > len(byID)+1 {
				t.Errorf("imported span %q (%s): parent walk cycles", e.Name, e.Proc)
				break
			}
			p, ok := byID[cur.Parent]
			if !ok {
				t.Errorf("imported span %q (%s): dangling parent %d at %q — not stitched into the coordinator tree",
					e.Name, e.Proc, cur.Parent, cur.Name)
				break
			}
			if p.Proc == "" && (p.Name == "cluster.proxy" || p.Name == "cluster.dataset") {
				if e.Trace != p.Trace {
					t.Errorf("imported span %q trace %q != root %q trace %q", e.Name, e.Trace, p.Name, p.Trace)
				}
				break
			}
			cur = p
		}
	}
	return checked
}

// TestMergedTraceAcrossProcesses is the tentpole's chaos-style end-to-end pin:
// a guidance request forced through a failover (first-choice replica answers
// 500) and a dataset job sharded across two replicas, all with telemetry on,
// must leave the coordinator's /debug/flight holding ONE merged trace in which
// every replica-side span is a descendant of the coordinator root span — and
// the dataset bytes must stay bit-identical to a single-process run.
func TestMergedTraceAcrossProcesses(t *testing.T) {
	failing := newStubReplica(t, func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	})
	// Same telemetry seed everywhere: all three processes draw identical
	// span-ID streams, so the merge only stays a tree if import remapping
	// works — the adversarial case for cross-process merging.
	w1 := startTracedWorker(t, 1, nil, "OTA1-A")
	w2 := startTracedWorker(t, 1, nil, "OTA1-A")
	c := newTestCoordinator(t, Config{
		Replicas:  []string{failing.ts.URL, w1.ts.URL, w2.ts.URL},
		Telemetry: obs.New(obs.Options{Seed: 1}),
	})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	// Guidance through a forced failover: pick a bench whose rendezvous first
	// choice is the 500-ing stub, so the winning answer comes from a traced
	// worker only after the ladder steps past the failure.
	bench := benchWithFirstChoice(t, c, c.replicas[0])
	resp, body := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"`+bench+`"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("guidance status %d: %s", resp.StatusCode, body)
	}
	if failing.hits.Load() < 1 {
		t.Fatal("first-choice stub never hit; failover not exercised")
	}
	if rep := resp.Header.Get(HeaderReplica); rep == failing.ts.URL {
		t.Fatalf("answer came from the failing replica %s", rep)
	}
	if timing := resp.Header.Get(serve.HeaderTiming); timing == "" {
		t.Error("proxied response missing " + serve.HeaderTiming)
	}

	// Dataset job across two shard leases, bit-identity with tracing on.
	want := referenceDatasetBytes(t, "OTA1-A", 4, 7)
	resp, body = postJSON(t, ts.URL+"/v1/dataset",
		`{"bench":"OTA1-A","samples":4,"seed":7,"shard_size":2,"include_uniform":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dataset status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("traced distributed dataset not byte-identical to the single-process run")
	}

	// The merged-trace invariant on the coordinator's flight recorder.
	snap := coordinatorFlight(t, ts.URL)
	var proxies, datasets, shardAttempts int
	for _, e := range snap.Events {
		switch {
		case e.Name == "cluster.proxy" && e.Proc == "":
			proxies++
		case e.Name == "cluster.dataset" && e.Proc == "":
			datasets++
		case e.Name == "cluster.shard.attempt":
			shardAttempts++
		}
	}
	if proxies < 1 || datasets < 1 {
		t.Fatalf("coordinator roots missing: %d cluster.proxy, %d cluster.dataset", proxies, datasets)
	}
	if shardAttempts < 2 {
		t.Errorf("%d shard attempt spans, want >= 2 (one per lease)", shardAttempts)
	}
	imported := assertDescendants(t, snap)
	if imported < 3 {
		t.Errorf("only %d imported replica spans; want the guidance subtree plus both shard subtrees", imported)
	}

	// And the Chrome rendering: multi-process, with pid-naming metadata.
	var tr struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			PID   int            `json:"pid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(httpGet(t, ts.URL+"/debug/flight?format=trace"), &tr); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	procNames := map[string]bool{}
	maxPID := 0
	for _, e := range tr.TraceEvents {
		if e.PID > maxPID {
			maxPID = e.PID
		}
		if e.Phase == "M" && e.Name == "process_name" {
			if n, _ := e.Args["name"].(string); n != "" {
				procNames[n] = true
			}
		}
	}
	if maxPID < 2 {
		t.Error("merged Chrome trace has a single pid; imported spans missing")
	}
	if !procNames["local"] {
		t.Errorf("process_name metadata %v missing the local process", procNames)
	}
	if !procNames[w1.ts.URL] && !procNames[w2.ts.URL] {
		t.Errorf("process_name metadata %v names no worker replica", procNames)
	}
}

// TestDatasetLeaseExpiryPropagatesRequestID pins end-to-end identity on the
// lease path: the request ID the coordinator mints when a dataset job arrives
// must reach the first lease holder, survive a lease expiry, and arrive
// unchanged at the redispatch target — observable in the shard-attempt spans,
// the imported replica spans, and the slog records on both sides.
func TestDatasetLeaseExpiryPropagatesRequestID(t *testing.T) {
	// Two stalling replicas: each takes a lease, never answers, and releases
	// only when the coordinator cancels. With the real worker ranked last,
	// the first lease AND the TTL/2 hedge both burn on stalls — only the
	// post-expiry redispatch reaches a replica that can answer.
	newStall := func() (*httptest.Server, *atomic.Value) {
		var rid atomic.Value
		mux := http.NewServeMux()
		mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusOK)
		})
		mux.HandleFunc("/v1/dataset/shard", func(w http.ResponseWriter, r *http.Request) {
			rid.Store(r.Header.Get(serve.HeaderRequestID))
			io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		return ts, &rid
	}
	stall1, stall1RID := newStall()
	stall2, _ := newStall()

	// The worker's own lease runs under the same TTL, so the TTL must exceed
	// a real shard's compute time — ~10x longer under the race detector.
	leaseTTL := 3 * time.Second
	if raceEnabled {
		leaseTTL = 30 * time.Second
	}
	var workerLog, coordLog syncBuf
	w := startTracedWorker(t, 2, slog.New(slog.NewJSONHandler(&workerLog, nil)))
	c := newTestCoordinator(t, Config{
		Replicas:  []string{stall1.URL, stall2.URL, w.ts.URL},
		LeaseTTL:  leaseTTL,
		Telemetry: obs.New(obs.Options{Seed: 3}),
		Logger:    slog.New(slog.NewJSONHandler(&coordLog, nil)),
	})
	// A bench whose shard 0 ranks the real worker LAST: the two stalls absorb
	// the lease and the hedge, so the worker only sees the shard after the
	// first lease expired.
	var bench string
	for _, ckt := range []string{"OTA1", "OTA2", "OTA3", "OTA4", "OTA5"} {
		for _, prof := range []string{"A", "B", "C", "D"} {
			cir, p, err := core.ParseBenchmark(ckt + "-" + prof)
			if err != nil {
				continue
			}
			if cands := c.candidates(shardKeyFor(core.NetlistDigest(cir, p), 0)); cands[len(cands)-1].url == w.ts.URL {
				bench = ckt + "-" + prof
			}
		}
	}
	if bench == "" {
		t.Skip("no benchmark's shard ranked the worker last (p≈(2/3)^20); rerun")
	}
	want := referenceDatasetBytes(t, bench, 2, 11)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/dataset",
		`{"bench":"`+bench+`","samples":2,"seed":11,"shard_size":2,"include_uniform":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("dataset after lease expiry not byte-identical to the oracle")
	}
	rid := resp.Header.Get(serve.HeaderRequestID)
	if rid == "" {
		t.Fatal("coordinator did not mint a request ID for the dataset job")
	}

	// Wire propagation: both the expired holder and the redispatch target saw
	// the same coordinator-minted ID.
	if got, _ := stall1RID.Load().(string); got != rid {
		t.Errorf("stalled holder saw request ID %q, want %q", got, rid)
	}
	if got, _ := w.shardRID.Load().(string); got != rid {
		t.Errorf("redispatch target saw request ID %q, want %q", got, rid)
	}

	// Span propagation: every shard attempt (original + redispatch) carries
	// the ID, and the imported replica-side shard span does too.
	snap := coordinatorFlight(t, ts.URL)
	attempts, importedShards := 0, 0
	for _, e := range snap.Events {
		switch {
		case e.Name == "cluster.shard.attempt":
			attempts++
			if got, _ := e.Args.Get("request_id").(string); got != rid {
				t.Errorf("shard attempt span request_id %q, want %q (args %v)", got, rid, e.Args)
			}
		case e.Name == "serve.dataset.shard" && e.Proc == w.ts.URL:
			importedShards++
			if got, _ := e.Args.Get("request_id").(string); got != rid {
				t.Errorf("imported shard span request_id %q, want %q", got, rid)
			}
		}
	}
	if attempts < 2 {
		t.Errorf("%d shard attempt spans, want >= 2 (lease + redispatch)", attempts)
	}
	if importedShards < 1 {
		t.Error("redispatch target's serve.dataset.shard span never merged into the coordinator trace")
	}
	assertDescendants(t, snap)

	// Slog propagation: the coordinator's expiry record and the worker's
	// shard-labeled record both carry the same request ID.
	if logs := coordLog.String(); !strings.Contains(logs, "shard lease expired") ||
		!strings.Contains(logs, `"request_id":"`+rid+`"`) {
		t.Errorf("coordinator log missing expiry record with request_id %q:\n%s", rid, logs)
	}
	if logs := workerLog.String(); !strings.Contains(logs, "dataset shard labeled") ||
		!strings.Contains(logs, `"request_id":"`+rid+`"`) {
		t.Errorf("worker log missing shard record with request_id %q:\n%s", rid, logs)
	}
}
