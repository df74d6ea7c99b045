package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"analogfold/internal/core"
	"analogfold/internal/hetgraph"
	"analogfold/internal/netlist"
	"analogfold/internal/obs"
	"analogfold/internal/place"
)

// cachedStubServer builds a server with the result cache on and doGuidance
// replaced by a counting stub whose response the test controls per call.
func cachedStubServer(t *testing.T, cfg Config, stub func(req GuidanceRequest, useModel bool) *GuidanceResponse) (*Server, *httptest.Server, *atomic.Int64) {
	t.Helper()
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 64
	}
	if cfg.Opts.Samples == 0 {
		cfg.Opts = testOpts()
	}
	s := New(nil, cfg)
	// The cached path derives keys from the real flow, so the stub needs a
	// real placed flow — not the empty stubFlow entry.
	if err := s.Warm([]string{"OTA1-A"}); err != nil {
		t.Fatal(err)
	}
	var executions atomic.Int64
	s.doGuidance = func(ctx context.Context, f *core.Flow, hg *hetgraph.Graph, req GuidanceRequest, useModel bool) (*GuidanceResponse, error) {
		executions.Add(1)
		return stub(req, useModel), nil
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, &executions
}

func eliteStub(req GuidanceRequest, _ bool) *GuidanceResponse {
	return &GuidanceResponse{
		Bench: "OTA1-A", Seed: req.Seed, Rung: string(core.RungElite),
		CMax: 2, Guides: [][][3]float64{{{1, 1, 1}}},
	}
}

// TestCacheSingleflightCollapse pins the tentpole's duplicate-collapse
// contract: K identical in-flight requests cost exactly one flow execution
// and yield K identical bodies, with the cache header telling each request
// how it was served.
func TestCacheSingleflightCollapse(t *testing.T) {
	const k = 6
	computing := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	s, ts, executions := cachedStubServer(t, Config{QueueCapacity: k},
		func(req GuidanceRequest, _ bool) *GuidanceResponse {
			once.Do(func() { close(computing) })
			<-gate
			return eliteStub(req, true)
		})
	bodies := make([][]byte, k)
	headers := make([]string, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"OTA1-A","seed":7}`)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
			}
			bodies[i], headers[i] = b, resp.Header.Get(HeaderCache)
		}(i)
	}
	<-computing
	for s.cache.Stats().Collapses < k-1 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if n := executions.Load(); n != 1 {
		t.Fatalf("flow executions = %d, want 1", n)
	}
	miss, collapsed := 0, 0
	for i := range bodies {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("body %d differs from body 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
		switch headers[i] {
		case "miss":
			miss++
		case "collapsed":
			collapsed++
		default:
			t.Fatalf("request %d: header %q", i, headers[i])
		}
	}
	if miss != 1 || collapsed != k-1 {
		t.Fatalf("headers: %d miss / %d collapsed, want 1 / %d", miss, collapsed, k-1)
	}
	_, m := getMetrics(t, ts.URL)
	misses, collapses := m.num(t, "analogfold_serve_cache_misses_total"), m.num(t, "analogfold_serve_cache_collapses_total")
	if misses != 1 || collapses != k-1 {
		t.Fatalf("metrics cache misses=%d collapses=%d, want 1 miss, %d collapses", misses, collapses, k-1)
	}
}

// TestCacheHitReplaysBytes pins hit behavior: the second identical request is
// served from the cache (no new execution), byte-identical, with the hit
// header — and a request differing in any effective option misses. The stub
// takes a few milliseconds, so the concurrent stream at the end overlaps
// in-flight executions.
func TestCacheHitReplaysBytes(t *testing.T) {
	_, ts, executions := cachedStubServer(t, Config{}, func(req GuidanceRequest, useModel bool) *GuidanceResponse {
		time.Sleep(5 * time.Millisecond)
		return eliteStub(req, useModel)
	})
	resp1, b1 := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"OTA1-A","seed":7}`)
	resp2, b2 := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"OTA1-A","seed":7}`)
	if g, w := resp1.Header.Get(HeaderCache), "miss"; g != w {
		t.Fatalf("first header = %q, want %q", g, w)
	}
	if g, w := resp2.Header.Get(HeaderCache), "hit"; g != w {
		t.Fatalf("second header = %q, want %q", g, w)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("hit body differs:\n%s\nvs\n%s", b2, b1)
	}
	if n := executions.Load(); n != 1 {
		t.Fatalf("executions after hit = %d, want 1", n)
	}
	// A different seed is a different content address.
	resp3, _ := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"OTA1-A","seed":8}`)
	if g, w := resp3.Header.Get(HeaderCache), "miss"; g != w {
		t.Fatalf("distinct-seed header = %q, want %q", g, w)
	}
	if n := executions.Load(); n != 2 {
		t.Fatalf("executions after distinct seed = %d, want 2", n)
	}
	_, m := getMetrics(t, ts.URL)
	hits, misses, entries := m.num(t, "analogfold_serve_cache_hits_total"),
		m.num(t, "analogfold_serve_cache_misses_total"), m.num(t, "analogfold_serve_cache_entries")
	if hits != 1 || misses != 2 || entries != 2 {
		t.Fatalf("metrics cache hits=%d misses=%d entries=%d, want 1 hit / 2 misses / 2 entries", hits, misses, entries)
	}

	// A concurrent mixed stream — a cached key and two new ones, four
	// requests each: only the new keys execute, and every duplicate is served
	// as a hit or a collapse, however the requests interleave.
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			if resp, _ := postJSON(t, ts.URL+"/v1/guidance", fmt.Sprintf(`{"bench":"OTA1-A","seed":%d}`, seed)); resp.StatusCode != http.StatusOK {
				t.Errorf("seed %d: status %d", seed, resp.StatusCode)
			}
		}([]int{7, 20, 21}[i%3])
	}
	wg.Wait()
	_, m = getMetrics(t, ts.URL)
	misses = m.num(t, "analogfold_serve_cache_misses_total")
	dups := m.num(t, "analogfold_serve_cache_hits_total") + m.num(t, "analogfold_serve_cache_collapses_total")
	if n := executions.Load(); n != 4 || misses != 4 || dups != 11 {
		t.Fatalf("after the mixed stream: executions=%d misses=%d hits+collapses=%d, want 4 / 4 (one per unique key) / 11 (every duplicate)", n, misses, dups)
	}
}

// TestCacheOffChangesOnlyHeader pins that the cache is invisible on the wire
// but for its header: a daemon with caching off and one with it on answer the
// same /v1/guidance and /v1/route requests with the same status and body
// bytes, and only the cached daemon sets X-Analogfold-Cache. The work is
// stubbed so route bodies carry no wall-clock runtime.
func TestCacheOffChangesOnlyHeader(t *testing.T) {
	serve := func(cacheEntries int) string {
		s := New(nil, Config{Opts: testOpts(), CacheEntries: cacheEntries})
		if err := s.Warm([]string{"OTA1-A"}); err != nil {
			t.Fatal(err)
		}
		s.doGuidance = func(_ context.Context, _ *core.Flow, _ *hetgraph.Graph, req GuidanceRequest, useModel bool) (*GuidanceResponse, error) {
			return eliteStub(req, useModel), nil
		}
		s.doRoute = func(_ context.Context, _ *core.Flow, _ *hetgraph.Graph, req RouteRequest, _ bool) (*RouteResponse, *core.Outcome, error) {
			return &RouteResponse{Bench: req.Bench, Seed: req.Seed, Rung: string(core.RungElite),
				WirelengthNm: 1234, Vias: 5, GainDB: 40.5, RuntimeMS: 1}, okOutcome(), nil
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}
	off, on := serve(0), serve(64)
	for _, path := range []string{"/v1/guidance", "/v1/route"} {
		const req = `{"bench":"OTA1-A","seed":7}`
		respOff, bodyOff := postJSON(t, off+path, req)
		if _, ok := respOff.Header[HeaderCache]; ok {
			t.Errorf("%s: cache-off daemon set %s: %q", path, HeaderCache, respOff.Header.Get(HeaderCache))
		}
		for i, want := range []string{"miss", "hit"} {
			respOn, bodyOn := postJSON(t, on+path, req)
			if respOn.StatusCode != respOff.StatusCode || !bytes.Equal(bodyOn, bodyOff) {
				t.Errorf("%s request %d: cache on = %d %q, cache off = %d %q", path, i,
					respOn.StatusCode, bodyOn, respOff.StatusCode, bodyOff)
			}
			if got := respOn.Header.Get(HeaderCache); got != want {
				t.Errorf("%s request %d: %s = %q, want %q", path, i, HeaderCache, got, want)
			}
		}
	}
}

// TestCacheDuplicateHeavySpeedup gates the cache's wall-clock win on real
// flows: a volley of 32 concurrent requests over 4 seeds (87.5% repeats) runs
// at least 5× faster with the cache on than off, and in every cached volley
// at least one duplicate collapses onto an in-flight execution. The volleys
// run in three interleaved pairs, alternating which side goes first, and the
// gate compares the two sides' medians, so one volley slowed by a busy host
// cannot decide it. Skipped on a single-CPU host, where wall time mostly
// measures scheduling.
func TestCacheDuplicateHeavySpeedup(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("wall-clock gate needs a multi-CPU host")
	}
	model := trainedModel(t)
	volley := func(cacheEntries int) (time.Duration, metricsBody) {
		s := New(model, Config{Opts: testOpts(), QueueCapacity: 32, AdmissionTimeout: time.Minute, CacheEntries: cacheEntries})
		if err := s.Warm([]string{"OTA1-A"}); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		var wg sync.WaitGroup
		t0 := time.Now()
		for i := 0; i < 32; i++ {
			wg.Add(1)
			go func(seed int) {
				defer wg.Done()
				if resp, b := postJSON(t, ts.URL+"/v1/guidance", fmt.Sprintf(`{"bench":"OTA1-A","seed":%d}`, seed)); resp.StatusCode != http.StatusOK {
					t.Errorf("seed %d: status %d: %s", seed, resp.StatusCode, b)
				}
			}(1 + i%4)
		}
		wg.Wait()
		wall := time.Since(t0)
		_, m := getMetrics(t, ts.URL)
		return wall, m
	}
	const pairs = 3
	var cached, uncached []time.Duration
	for i := 0; i < pairs; i++ {
		cachedFirst := i%2 == 0
		for _, on := range [2]bool{cachedFirst, !cachedFirst} {
			if !on {
				wall, _ := volley(0)
				uncached = append(uncached, wall)
				continue
			}
			wall, m := volley(256)
			cached = append(cached, wall)
			if c := m.num(t, "analogfold_serve_cache_collapses_total"); c < 1 {
				t.Errorf("cached volley %d: no singleflight collapses among 28 concurrent duplicates", i)
			}
		}
	}
	median := func(d []time.Duration) time.Duration {
		slices.Sort(d)
		return d[len(d)/2]
	}
	t.Logf("32 requests over 4 seeds: cached %v, uncached %v", cached, uncached)
	c, u := median(cached), median(uncached)
	if sp := u.Seconds() / c.Seconds(); sp < 5 {
		t.Errorf("duplicate-heavy speedup %.1fx (median cached %v, uncached %v), want >= 5x", sp, c, u)
	}
}

// TestCacheHitServedWhileBreakerOpen pins the breaker interaction: cached
// elite bodies keep flowing while the breaker is open, because a hit replays
// stored bytes without consulting the breaker or the model; only the
// uncacheable breaker-open computes degrade.
func TestCacheHitServedWhileBreakerOpen(t *testing.T) {
	s, ts, executions := cachedStubServer(t, Config{BreakerThreshold: 3}, eliteStub)
	_, prime := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"OTA1-A","seed":7}`)
	for i := 0; i < 3; i++ {
		s.brk.record(true)
	}
	if state, _, _ := s.brk.snapshot(); state != breakerOpen {
		t.Fatalf("breaker state = %s, want open", state)
	}
	resp, b := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"OTA1-A","seed":7}`)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(HeaderCache) != "hit" {
		t.Fatalf("breaker-open cached request: status %d, header %q, want 200 hit",
			resp.StatusCode, resp.Header.Get(HeaderCache))
	}
	if !bytes.Equal(b, prime) {
		t.Fatal("breaker-open hit body differs from primed elite body")
	}
	if n := executions.Load(); n != 1 {
		t.Fatalf("executions = %d: breaker-open hit touched the flow", n)
	}
	// An uncached key while open computes without the model and is NOT
	// retained: the breaker-open shape must not poison the cache.
	respMiss, _ := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"OTA1-A","seed":9}`)
	if respMiss.Header.Get(HeaderCache) != "miss" {
		t.Fatalf("open-breaker new key header = %q, want miss", respMiss.Header.Get(HeaderCache))
	}
	if s.cache.Len() != 1 {
		t.Fatalf("cache retained a breaker-open body: len=%d, want 1", s.cache.Len())
	}
}

// TestCacheDegradedNotRetained pins that degraded bodies are served but never
// replayed.
func TestCacheDegradedNotRetained(t *testing.T) {
	_, ts, executions := cachedStubServer(t, Config{},
		func(req GuidanceRequest, _ bool) *GuidanceResponse {
			r := eliteStub(req, true)
			r.Rung, r.Degraded = string(core.RungUniform), true
			return r
		})
	for i := 0; i < 2; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"OTA1-A","seed":7}`)
		if resp.Header.Get(HeaderCache) != "miss" {
			t.Fatalf("request %d header = %q, want miss (degraded never cached)",
				i, resp.Header.Get(HeaderCache))
		}
	}
	if n := executions.Load(); n != 2 {
		t.Fatalf("executions = %d, want 2", n)
	}
}

// TestCacheKeyCanonicalization pins the content-address derivation: zero-
// valued request knobs normalize to the daemon defaults (same digest), any
// differing effective knob or endpoint kind yields a distinct digest, and the
// worker count — which cannot change outputs — is not part of the address.
func TestCacheKeyCanonicalization(t *testing.T) {
	f, err := core.NewFlow(netlist.OTA1(), place.ProfileA, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	o := testOpts() // Seed 1, RelaxRestarts 3, NDerive 2
	base := cacheKeyFor("guidance", f, 0, 0, 0)
	same := []string{
		cacheKeyFor("guidance", f, o.Seed, o.RelaxRestarts, o.NDerive),
		cacheKeyFor("guidance", f, o.Seed, 0, o.NDerive),
		cacheKeyFor("guidance", f, 0, o.RelaxRestarts, 0),
	}
	for i, k := range same {
		if k != base {
			t.Errorf("canonical variant %d: %q != %q", i, k, base)
		}
	}
	ow := o
	ow.Workers = o.Workers + 6
	if k := cacheKeyFor("guidance", f.WithOptions(ow), 0, 0, 0); k != base {
		t.Errorf("worker count changed the key: %q != %q", k, base)
	}
	distinct := map[string]string{
		"seed":     cacheKeyFor("guidance", f, o.Seed+1, 0, 0),
		"restarts": cacheKeyFor("guidance", f, 0, o.RelaxRestarts+1, 0),
		"nderive":  cacheKeyFor("guidance", f, 0, 0, o.NDerive+1),
		"endpoint": cacheKeyFor("route", f, 0, 0, 0),
	}
	seen := map[string]string{base: "base"}
	for name, k := range distinct {
		if prev, dup := seen[k]; dup {
			t.Errorf("%s key collides with %s: %q", name, prev, k)
		}
		seen[k] = name
	}
	// A different placement profile is a different netlist digest.
	f2, err := core.NewFlow(netlist.OTA1(), place.ProfileB, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if k := cacheKeyFor("guidance", f2, 0, 0, 0); k == base {
		t.Errorf("profile B key collides with profile A: %q", k)
	}
}

// TestBatchWaveBitIdentity is the satellite's wave-vs-sequential pin: three
// concurrent distinct requests coalesce into exactly one scoring wave
// (BatchMax closes it deterministically), every body is byte-identical to the
// -batch-window=0 reference path AND to the CLI builder, and the wave cost
// exactly one PredictBatch call (serve wave counter == relax score-wave
// counter == 1). Run under -race in CI, this is also the data-race proof for
// the wave barrier.
func TestBatchWaveBitIdentity(t *testing.T) {
	model := trainedModel(t)
	seeds := []int64{11, 12, 13}

	tel := obs.New(obs.Options{Seed: 1})
	batched := New(model, Config{
		Opts: testOpts(), QueueCapacity: 8, CacheEntries: 64,
		BatchWindow: 5 * time.Second, BatchMax: len(seeds),
		Telemetry: tel,
	})
	if err := batched.Warm([]string{"OTA1-A"}); err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(batched.Handler())
	defer tsA.Close()

	waveBodies := make(map[int64][]byte)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, seed := range seeds {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			resp, b := postJSON(t, tsA.URL+"/v1/guidance",
				fmt.Sprintf(`{"bench":"OTA1-A","seed":%d}`, seed))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("seed %d: status %d: %s", seed, resp.StatusCode, b)
			}
			mu.Lock()
			waveBodies[seed] = b
			mu.Unlock()
		}(seed)
	}
	wg.Wait()

	_, m := getMetrics(t, tsA.URL)
	if waves := m.num(t, "analogfold_serve_batch_waves_total"); waves != 1 {
		t.Fatalf("batch waves = %d, want 1 (BatchMax=%d closes the wave)", waves, len(seeds))
	}
	if want, got := int64(len(seeds)*testOpts().NDerive), m.num(t, "analogfold_serve_batch_candidates_total"); got != want {
		t.Fatalf("batched candidates = %d, want %d", got, want)
	}
	if size := m.hist(t, "analogfold_serve_batch_size"); size.Count != 1 || size.MeanMS != float64(len(seeds)) {
		t.Fatalf("batch size view = %+v, want one observation of %d", size, len(seeds))
	}
	if n := tel.Registry().Counter("analogfold_relax_score_waves_total").Value(); n != 1 {
		t.Fatalf("relax score-wave calls = %d, want exactly 1 PredictBatch per wave", n)
	}

	// Reference arm: batch-window=0, cache off — the seed path.
	sequential := New(model, Config{Opts: testOpts(), QueueCapacity: 8})
	if err := sequential.Warm([]string{"OTA1-A"}); err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(sequential.Handler())
	defer tsB.Close()
	f, hg, err := sequential.flowFor("OTA1-A")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds {
		_, ref := postJSON(t, tsB.URL+"/v1/guidance",
			fmt.Sprintf(`{"bench":"OTA1-A","seed":%d}`, seed))
		if !bytes.Equal(waveBodies[seed], ref) {
			t.Errorf("seed %d: batched body differs from batch-window=0 reference:\n%s\nvs\n%s",
				seed, waveBodies[seed], ref)
		}
		// And both match the CLI artifact builder — the served==CLI pin
		// extended to the batched path.
		cliResp, err := BuildGuidanceResponse(context.Background(), f, model, hg,
			GuidanceRequest{Bench: "OTA1-A", Seed: seed}, true)
		if err != nil {
			t.Fatalf("seed %d: CLI build: %v", seed, err)
		}
		cli, err := MarshalBody(cliResp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(waveBodies[seed], cli) {
			t.Errorf("seed %d: batched body differs from CLI artifact", seed)
		}
	}

	// Replay: the batched bodies are now cached — a repeat is a hit with the
	// same bytes (cache on/off invariance of the body itself).
	for _, seed := range seeds {
		resp, b := postJSON(t, tsA.URL+"/v1/guidance",
			fmt.Sprintf(`{"bench":"OTA1-A","seed":%d}`, seed))
		if resp.Header.Get(HeaderCache) != "hit" || !bytes.Equal(b, waveBodies[seed]) {
			t.Errorf("seed %d: replay not a byte-identical hit (header %q)",
				seed, resp.Header.Get(HeaderCache))
		}
	}
}
