package analogfold_bench

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"analogfold/internal/atomicfile"
	"analogfold/internal/gnn3d"
	"analogfold/internal/guidance"
	"analogfold/internal/hetgraph"
	"analogfold/internal/netlist"
	"analogfold/internal/obs"
	"analogfold/internal/serve"
	"analogfold/internal/tensor"

	mrand "math/rand"
)

// serveMixRow is one traffic mix's measurement in BENCH_serve.json.
type serveMixRow struct {
	Requests   int     `json:"requests"`
	Unique     int     `json:"unique"`
	CachedMs   float64 `json:"cached_ms"`
	UncachedMs float64 `json:"uncached_ms,omitempty"`
	Speedup    float64 `json:"speedup,omitempty"`
	Hits       int64   `json:"hits"`
	Misses     int64   `json:"misses"`
	Collapses  int64   `json:"collapses"`
	Waves      int64   `json:"waves,omitempty"`
	Candidates int64   `json:"candidates,omitempty"`
	ScoreWaves int64   `json:"score_waves,omitempty"`
}

// serveReport is the machine-readable output of BenchmarkServeThroughput —
// the perf-regression record for batch-first serving, following the
// BENCH_route.json shape (host fields up front so numbers recorded on a
// degenerate machine are recognizable as such).
type serveReport struct {
	GoMaxProcs     int  `json:"gomaxprocs"`
	NumCPU         int  `json:"numcpu"`
	DegenerateHost bool `json:"degenerate_host"`

	// DuplicateHeavy is the repeat-dominated mix (≥80% repeated keys): the
	// result cache plus singleflight should win ≥5× wall time over the
	// uncached daemon (gated off degenerate hosts; the misses==unique and
	// collapse pins are host-independent).
	DuplicateHeavy serveMixRow `json:"duplicate_heavy"`

	// AllDistinct is the no-repeat mix exercising micro-batch waves: every
	// scored wave costs exactly one PredictBatch (waves == score_waves,
	// CI-gated), and candidates counts each member's N_derive sets.
	AllDistinct serveMixRow `json:"all_distinct"`

	// Wave-scoring cost model: K deferred members scored through one stacked
	// PredictBatch versus K request-scoped calls. The allocation-count
	// reduction is host-independent (CI-gated ≥2×).
	WaveMembers        int     `json:"wave_members"`
	BatchedScoreAllocs uint64  `json:"batched_score_allocs"`
	SequentialAllocs   uint64  `json:"sequential_score_allocs"`
	AllocReduction     float64 `json:"alloc_reduction"`
	BatchedScoreMs     float64 `json:"batched_score_ms"`
	SequentialScoreMs  float64 `json:"sequential_score_ms"`
}

// serveBenchServer builds a warmed guidance daemon for one benchmark arm.
func serveBenchServer(b *testing.B, m *gnn3d.Model, cfg serve.Config) *httptest.Server {
	b.Helper()
	if cfg.Opts.Samples == 0 {
		o := quickOpts()
		o.Workers = 2
		cfg.Opts = o
	}
	if cfg.QueueCapacity == 0 {
		cfg.QueueCapacity = 32
	}
	if cfg.AdmissionTimeout == 0 {
		cfg.AdmissionTimeout = time.Minute
	}
	s := serve.New(m, cfg)
	if err := s.Warm([]string{"OTA1-A"}); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	return ts
}

// fireGuidance posts n concurrent /v1/guidance requests (seed chosen per
// index) and returns the wall time of the whole volley.
func fireGuidance(b *testing.B, url string, n int, seedFor func(int) int64) time.Duration {
	b.Helper()
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"bench":"OTA1-A","seed":%d}`, seedFor(i))
			resp, err := http.Post(url+"/v1/guidance", "application/json", strings.NewReader(body))
			if err != nil {
				b.Errorf("request %d: %v", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("request %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	return time.Since(t0)
}

// scrapeMetrics reads the daemon's /metrics JSON object: series name →
// value.
func scrapeMetrics(b *testing.B, url string) map[string]any {
	b.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		b.Fatal(err)
	}
	return m
}

// series reads one counter or gauge from a scraped /metrics object.
func series(b *testing.B, m map[string]any, name string) int64 {
	b.Helper()
	v, ok := m[name].(float64)
	if !ok {
		b.Fatalf("/metrics series %s = %v, want a number", name, m[name])
	}
	return int64(v)
}

// BenchmarkServeThroughput measures batch-first serving — the duplicate-heavy
// mix against the content-addressed cache with singleflight, the all-distinct
// mix through micro-batch scoring waves, and the wave-scoring allocation
// model — and writes BENCH_serve.json next to BENCH_model.json. Rerun with
// `make bench-serve` and diff the file. Structural pins (cache misses ==
// unique keys, one PredictBatch per wave, batched-vs-sequential allocation
// reduction) gate everywhere; wall-clock gates apply only off degenerate
// hosts.
func BenchmarkServeThroughput(b *testing.B) {
	m := gnn3d.New(gnn3d.Config{Seed: 1, Hidden: 16, Layers: 2, RBFBins: 8})
	rep := serveReport{
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		DegenerateHost: runtime.NumCPU() < 2,
	}

	// --- Duplicate-heavy mix: 32 requests over 4 unique seeds (87.5% repeats).
	const dupN, dupUnique = 32, 4
	dupSeed := func(i int) int64 { return int64(1 + i%dupUnique) }
	cached := serveBenchServer(b, m, serve.Config{CacheEntries: 256})
	cachedWall := fireGuidance(b, cached.URL, dupN, dupSeed)
	cm := scrapeMetrics(b, cached.URL)
	hits, misses, collapses := series(b, cm, "analogfold_serve_cache_hits_total"),
		series(b, cm, "analogfold_serve_cache_misses_total"), series(b, cm, "analogfold_serve_cache_collapses_total")
	uncached := serveBenchServer(b, m, serve.Config{})
	uncachedWall := fireGuidance(b, uncached.URL, dupN, dupSeed)
	rep.DuplicateHeavy = serveMixRow{
		Requests: dupN, Unique: dupUnique,
		CachedMs:   cachedWall.Seconds() * 1e3,
		UncachedMs: uncachedWall.Seconds() * 1e3,
		Speedup:    uncachedWall.Seconds() / cachedWall.Seconds(),
		Hits:       hits, Misses: misses, Collapses: collapses,
	}
	b.Logf("duplicate-heavy %d req / %d unique: cached %8.1fms  uncached %8.1fms  speedup %.1fx  (%d miss, %d hit, %d collapsed)",
		dupN, dupUnique, rep.DuplicateHeavy.CachedMs, rep.DuplicateHeavy.UncachedMs,
		rep.DuplicateHeavy.Speedup, misses, hits, collapses)
	if misses != dupUnique {
		b.Errorf("cache misses = %d, want exactly the %d unique keys — duplicates executed the flow",
			misses, dupUnique)
	}
	if hits+collapses != dupN-dupUnique {
		b.Errorf("hits+collapses = %d, want %d", hits+collapses, dupN-dupUnique)
	}
	if !rep.DegenerateHost {
		if rep.DuplicateHeavy.Speedup < 5 {
			b.Errorf("duplicate-heavy speedup %.1fx < 5x", rep.DuplicateHeavy.Speedup)
		}
		if collapses < 1 {
			b.Errorf("no singleflight collapses despite %d concurrent duplicates", dupN-dupUnique)
		}
	}

	// --- All-distinct mix: micro-batch waves, one PredictBatch per wave.
	const distinctN = 8
	reg := obs.NewRegistry()
	tel := obs.New(obs.Options{Seed: 1, Registry: reg})
	distinct := serveBenchServer(b, m, serve.Config{
		CacheEntries: 256, BatchWindow: 50 * time.Millisecond, BatchMax: 4,
		Telemetry: tel,
	})
	distinctWall := fireGuidance(b, distinct.URL, distinctN, func(i int) int64 { return int64(100 + i) })
	dm := scrapeMetrics(b, distinct.URL)
	waves, candidates := series(b, dm, "analogfold_serve_batch_waves_total"), series(b, dm, "analogfold_serve_batch_candidates_total")
	scoreWaves := reg.Counter("analogfold_relax_score_waves_total").Value()
	rep.AllDistinct = serveMixRow{
		Requests: distinctN, Unique: distinctN,
		CachedMs: distinctWall.Seconds() * 1e3,
		Misses:   series(b, dm, "analogfold_serve_cache_misses_total"),
		Waves:    waves, Candidates: candidates, ScoreWaves: scoreWaves,
	}
	b.Logf("all-distinct %d req: %8.1fms  %d waves  %d candidates  %d PredictBatch calls",
		distinctN, rep.AllDistinct.CachedMs, waves, candidates, scoreWaves)
	if waves < 1 {
		b.Errorf("no scoring waves formed for %d concurrent distinct requests", distinctN)
	}
	if scoreWaves != waves {
		b.Errorf("PredictBatch calls (%d) != waves (%d): a wave cost more than one model pass",
			scoreWaves, waves)
	}
	nd := quickOpts().NDerive
	if want := int64(distinctN * nd); candidates != want {
		b.Errorf("batched candidates = %d, want %d (%d members x %d derives)",
			candidates, want, distinctN, nd)
	}

	// --- Wave-scoring cost model: one stacked PredictBatch for K members
	// versus K request-scoped calls. Allocation counts are host-independent.
	g := builtGrid(b, netlist.OTA1())
	hg, err := hetgraph.Build(g, hetgraph.Config{})
	if err != nil {
		b.Fatal(err)
	}
	const members, perMember = 4, 4
	rep.WaveMembers = members
	rng := mrand.New(mrand.NewSource(7))
	nets := len(g.Place.Circuit.Nets)
	stacked := make([]*tensor.Tensor, 0, members*perMember)
	for i := 0; i < members*perMember; i++ {
		gd := guidance.Sample(nets, rng, 2)
		stacked = append(stacked, tensor.FromSlice(gd.Flat(), nets, 3))
	}
	measure := func(reps int, fn func()) (time.Duration, uint64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		wall := time.Since(t0)
		runtime.ReadMemStats(&after)
		return wall / time.Duration(reps), (after.Mallocs - before.Mallocs) / uint64(reps)
	}
	if _, err := m.PredictBatch(hg, stacked); err != nil { // warm both arms
		b.Fatal(err)
	}
	const reps = 20
	bw, ba := measure(reps, func() {
		if _, err := m.PredictBatch(hg, stacked); err != nil {
			b.Fatal(err)
		}
	})
	sw, sa := measure(reps, func() {
		for k := 0; k < members; k++ {
			if _, err := m.PredictBatch(hg, stacked[k*perMember:(k+1)*perMember]); err != nil {
				b.Fatal(err)
			}
		}
	})
	rep.BatchedScoreAllocs, rep.SequentialAllocs = ba, sa
	rep.AllocReduction = float64(sa) / float64(ba)
	rep.BatchedScoreMs = bw.Seconds() * 1e3
	rep.SequentialScoreMs = sw.Seconds() * 1e3
	b.Logf("wave scoring %d members x %d derives: batched %6.2fms %6d allocs  sequential %6.2fms %6d allocs  (%.1fx fewer allocs)",
		members, perMember, rep.BatchedScoreMs, ba, rep.SequentialScoreMs, sa, rep.AllocReduction)
	b.ReportMetric(rep.DuplicateHeavy.Speedup, "dup-speedup")
	b.ReportMetric(rep.AllocReduction, "alloc-reduction")
	if rep.AllocReduction < 2 {
		b.Errorf("wave scoring allocates only %.1fx less than sequential, want >= 2x", rep.AllocReduction)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := atomicfile.WriteFile("BENCH_serve.json", append(buf, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Log("wrote BENCH_serve.json")

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fireGuidance(b, cached.URL, dupUnique, dupSeed)
	}
}
