package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"analogfold/internal/core"
	"analogfold/internal/obs"
)

func TestTailRefusesUnsupportedPercentiles(t *testing.T) {
	v := make([]float64, 99)
	for i := range v {
		v[i] = float64(i)
	}
	if _, err := tail(v, 0.9); err == nil {
		t.Fatal("p90 of 99 samples was reported; it has only 9 samples beyond it")
	}
	v = append(v, 99)
	p90, err := tail(v, 0.9)
	if err != nil {
		t.Fatalf("p90 of 100 samples refused: %v", err)
	}
	if p90 < 89 || p90 > 90 {
		t.Errorf("p90 of 0..99 = %v, want within [89, 90]", p90)
	}
	if _, err := tail(v, 0.99); err == nil {
		t.Error("p99 of 100 samples was reported")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Values printed by Python 3's statistics.quantiles(v, n=4).
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1.5, 2.25, 9, 4}, [3]float64{1.875, 4, 7}},
	} {
		if got := quartiles(c.v); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98}
	for _, c := range []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"same", []float64{100, 99, 101, 100, 102, 98}, "lower", verdictWithin},
		{"slower beyond bound", []float64{120, 121, 119, 120, 122, 118}, "lower", verdictRegressed},
		{"faster", []float64{80, 81, 79, 80, 82, 78}, "lower", verdictWithin},
		{"lower throughput", []float64{80, 81, 79, 80, 82, 78}, "higher", verdictRegressed},
		{"too noisy", []float64{60, 140, 100, 70, 130, 100}, "lower", verdictUnresolved},
		{"noisy but every run better", []float64{50, 90, 70, 55, 85, 60}, "lower", verdictWithin},
	} {
		if got := verdict(steady, c.b, c.better, 0.1); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestParseTimingRoundTripsTimingHeader(t *testing.T) {
	var b obs.StageBreakdown
	b.Add(obs.StageQueue, 312*time.Microsecond)
	b.Add(obs.StageRelax, 120504*time.Microsecond)
	b.Add(obs.StageRoute, 2*time.Second+1*time.Microsecond)
	b.Add(obs.StageScore, 7*time.Microsecond)
	got, err := parseTiming(b.TimingHeader())
	if err != nil {
		t.Fatal(err)
	}
	for id := obs.StageID(0); id < obs.NumStages; id++ {
		if got[id] != b.Get(id) {
			t.Errorf("stage %s: parsed %v, header carried %v", obs.StageName(id), got[id], b.Get(id))
		}
	}
	if got, err := parseTiming(""); err != nil || got != ([obs.NumStages]time.Duration{}) {
		t.Errorf("empty header: %v, %v", got, err)
	}
	for _, bad := range []string{"relax", "relax;dur=x", "warp;dur=1.000", "relax;dur=-1"} {
		if _, err := parseTiming(bad); err == nil {
			t.Errorf("parseTiming(%q) accepted a malformed header", bad)
		}
	}
}

func TestSeededInputsAreDeterministic(t *testing.T) {
	a, b := jitteredSchedule(5, 200, time.Minute), jitteredSchedule(5, 200, time.Minute)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, jitteredSchedule(6, 200, time.Minute)) {
		t.Fatal("different seeds gave the same schedule")
	}
	slot := time.Minute / 200
	for i, at := range a {
		if at < time.Duration(i)*slot || at >= time.Duration(i+1)*slot {
			t.Fatalf("offset %d = %v: outside its slot [%v, %v)", i, at, time.Duration(i)*slot, time.Duration(i+1)*slot)
		}
	}

	values := make([]int64, 16)
	for i := range values {
		values[i] = opSeed(9, streamOpen, i)
	}
	draw := func(seed int64) []int64 {
		z := newZipfSeq(seed, zipfS, values)
		out := make([]int64, 2000)
		for i := range out {
			out[i] = z.next()
		}
		return out
	}
	za := draw(9)
	if !reflect.DeepEqual(za, draw(9)) {
		t.Fatal("same seed gave two different Zipf sequences")
	}
	if reflect.DeepEqual(za, draw(10)) {
		t.Fatal("different seeds gave the same Zipf sequence")
	}
	count := make(map[int64]int)
	for _, s := range za {
		count[s]++
	}
	if len(count) > 16 || count[values[0]] < count[values[15]] {
		t.Errorf("Zipf draws over %d keys, rank-0 %d vs rank-15 %d", len(count), count[values[0]], count[values[15]])
	}

	seen := make(map[int64]bool)
	for i := 0; i < 10000; i++ {
		s := opSeed(1, streamOpen, i)
		if seen[s] || s < 1<<60 || s >= 1<<61 || s == warmSeed {
			t.Fatalf("opSeed(1, open, %d) = %d: repeated or out of range", i, s)
		}
		seen[s] = true
	}
}

func TestOpenLoopTimesFromScheduledSend(t *testing.T) {
	const stall = 150 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		time.Sleep(stall)
		w.Header().Set("X-Analogfold-Timing", "relax;dur=150.000")
	}))
	defer ts.Close()
	// One connection: the second request waits for the first to finish.
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	replies := make([]reply, 2)
	openLoop([]time.Duration{0, 10 * time.Millisecond}, func(i int, due time.Time) {
		replies[i] = post(context.Background(), client, ts.URL, `{}`, due)
	})
	second := replies[1]
	if second.err != nil {
		t.Fatal(second.err)
	}
	if second.latency < 2*stall-20*time.Millisecond {
		t.Errorf("latency %v counts from the send, not from the due time (want >= %v)",
			second.latency, 2*stall-20*time.Millisecond)
	}
	if second.wait < stall-20*time.Millisecond {
		t.Errorf("client wait %v, want the first request's stall (>= %v)", second.wait, stall-20*time.Millisecond)
	}
	if second.stages[obs.StageRelax] != stall {
		t.Errorf("relax stage %v, want %v from the timing header", second.stages[obs.StageRelax], stall)
	}
}

func TestSpecMatchesTables(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program runs %s", got, want)
	}
	var e2e, layers []metricSpec
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit, m.Better})
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, metricSpec{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program reports %v", layers, perLayer)
	}
}

// tinyScale shrinks every size so every workload runs in seconds. The
// large benchmark is OTA1-B: another placement of the small circuit.
func tinyScale() scale {
	opts := core.Options{Samples: 4, TrainEpochs: 1, RelaxRestarts: 1, NDerive: 1, PlaceIters: 100, Seed: 1}
	return scale{
		opts: opts, flowOpts: opts, small: "OTA1-A", large: "OTA1-B",
		setupReps: 1, openRate: 10, hitKeys: 3, hitOps: 50,
		labelDraws: 1, relaxReps: 1, probeReps: 2,
	}
}

// TestSmokeAllWorkloads runs every workload at tiny scale, side by side; it
// takes about 9 s on a 2-core host.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, name := range workloadNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			// flow_cold's traced run covers the probes, the trace file and the
			// telemetry on the flow's context; guidance_open's the hit probe.
			traced := name != "route_closed"
			cfg := runConfig{
				workload: name, seed: 3, window: 200 * time.Millisecond, trace: traced,
				traceOut: filepath.Join(t.TempDir(), "trace.json"), sc: tinyScale(), log: io.Discard,
			}
			res, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit || !finite(got.Value) {
					t.Errorf("metric %s = %+v", m.name, got)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
				}
			}
			if traced && res.Metrics["trace.dropped"].Value != 0 {
				t.Errorf("trace dropped %v events", res.Metrics["trace.dropped"].Value)
			}
			if name == "guidance_open" && res.Metrics["servecache.hit_pct"].Value != 100 {
				t.Errorf("hit probe hit %v%% of its requests, want 100", res.Metrics["servecache.hit_pct"].Value)
			}
		})
	}
}
