package core

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"analogfold/internal/fault"
	"analogfold/internal/gnn3d"
	"analogfold/internal/guidance"
	"analogfold/internal/hetgraph"
	"analogfold/internal/netlist"
	"analogfold/internal/obs"
	"analogfold/internal/place"
	"analogfold/internal/relax"
	"analogfold/internal/route"
)

// quickOpts keeps the flow fast enough for unit tests while exercising every
// stage.
func quickOpts() Options {
	return Options{
		Samples: 10, TrainEpochs: 6, RelaxRestarts: 3, NDerive: 2,
		PlaceIters: 1200, VAECorpus: 2, VAEEpochs: 8, Seed: 1,
	}
}

func TestFlowSchematicAndMagical(t *testing.T) {
	f, err := NewFlow(netlist.OTA1(), place.ProfileA, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "OTA1-A" {
		t.Errorf("Name = %s", f.Name())
	}
	sch, err := f.Schematic()
	if err != nil {
		t.Fatal(err)
	}
	mag, err := f.RunMagical(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if mag.Metrics.BandwidthMHz <= 0 || mag.Metrics.BandwidthMHz > sch.BandwidthMHz*1.02 {
		t.Errorf("magical UGB %.2f vs schematic %.2f", mag.Metrics.BandwidthMHz, sch.BandwidthMHz)
	}
	if mag.Runtime() <= 0 || mag.WirelengthNm <= 0 {
		t.Errorf("outcome bookkeeping empty: %+v", mag)
	}
}

// TestMagicalIsUniformRoute pins one routing path: the MagicalRoute cell is
// Route with uniform guidance on the same flow, which runs as one
// guided-routing stage.
func TestMagicalIsUniformRoute(t *testing.T) {
	c := netlist.OTA1()
	f, err := NewFlow(c, place.ProfileA, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	mag, err := f.RunMagical(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tel := obs.New(obs.Options{Seed: 1})
	res, err := f.Route(obs.WithTelemetry(context.Background(), tel), guidance.Uniform(len(c.Nets)))
	if err != nil {
		t.Fatal(err)
	}
	if mag.WirelengthNm != res.WirelengthNm || mag.Vias != res.Vias {
		t.Errorf("RunMagical %d nm / %d vias, Route(Uniform) %d nm / %d vias",
			mag.WirelengthNm, mag.Vias, res.WirelengthNm, res.Vias)
	}
	n := 0
	for _, e := range tel.Recorder().Snapshot() {
		if fault.Stage(e.Name) == fault.StageRouting {
			n++
		}
	}
	if n != 1 {
		t.Errorf("Route recorded %d %s spans, want 1", n, fault.StageRouting)
	}
}

func TestFullPipelineOTA1(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline in -short mode")
	}
	f, err := NewFlow(netlist.OTA1(), place.ProfileA, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	mag, err := f.RunMagical(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := f.RunGenius(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ours, err := f.RunAnalogFold(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []*Outcome{mag, gen, ours} {
		if o.Metrics.BandwidthMHz <= 0 || o.Metrics.NoiseUVrms <= 0 {
			t.Errorf("%s produced degenerate metrics: %+v", o.Method, o.Metrics)
		}
	}
	// AnalogFold's stage times must cover all Figure-5 stages.
	ts := ours.Times
	if ts.ConstructDatabase <= 0 || ts.ModelTraining <= 0 || ts.GuideGeneration <= 0 || ts.GuidedRouting <= 0 {
		t.Errorf("missing stage times: %+v", ts)
	}
	// Model training dominates the one-time cost (Figure 5's shape).
	bd := BreakdownOf(ts)
	if bd.ModelTrainingPct+bd.ConstructDBPct < bd.GuidedRoutingPct {
		t.Errorf("learning stages unexpectedly cheap: %+v", bd)
	}
}

// TestStageRunnerSpansAndRuntime pins that every method's stages run through
// the stage runner: under telemetry each stage records one span named by its
// fault.Stage (listed in order of completion), the routing span covers the
// time routing adds to StageTimes, and the Table-2 runtime is guidance
// generation plus routing for all three methods.
func TestStageRunnerSpansAndRuntime(t *testing.T) {
	f, err := NewFlow(netlist.OTA1(), place.ProfileA, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		method Method
		run    func(context.Context) (*Outcome, error)
		spans  []string
	}{
		{MethodMagical, f.RunMagical, []string{"guided-routing"}},
		{MethodGenius, f.RunGenius, []string{"construct-database", "train-3dgnn", "guide-generation", "guided-routing"}},
		{MethodAnalogFold, f.RunAnalogFold, []string{"construct-database", "train-3dgnn", "relaxation", "guided-routing"}},
	} {
		t.Run(string(tc.method), func(t *testing.T) {
			tel := obs.New(obs.Options{Seed: 1})
			out, err := tc.run(obs.WithTelemetry(context.Background(), tel))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := out.Runtime(), out.Times.GuideGeneration+out.Times.GuidedRouting; got != want || got <= 0 {
				t.Errorf("Runtime() = %v, want GuideGeneration + GuidedRouting = %v > 0", got, want)
			}
			var names []string
			var routeUS int64
			for _, e := range tel.Recorder().Snapshot() {
				switch fault.Stage(e.Name) {
				case fault.StageDatabase, fault.StageTraining, fault.StageGuidance, fault.StageRelaxation:
					names = append(names, e.Name)
				case fault.StageRouting:
					names = append(names, e.Name)
					routeUS = e.DurUS
				}
			}
			if strings.Join(names, ",") != strings.Join(tc.spans, ",") {
				t.Errorf("spans %v, want %v", names, tc.spans)
			}
			// The span opens before the stage clock starts and ends after it
			// stops; 1 µs covers the span's microsecond truncation.
			if rt := out.Times.GuidedRouting.Microseconds(); rt > routeUS+1 {
				t.Errorf("GuidedRouting %d µs exceeds its span's %d µs", rt, routeUS)
			}
		})
	}
}

func TestFormatRowAndSummary(t *testing.T) {
	mk := func(bw float64) *Outcome {
		o := &Outcome{Method: MethodMagical, Times: StageTimes{GuidedRouting: time.Second}}
		o.Metrics.OffsetUV = 100
		o.Metrics.CMRRdB = 80
		o.Metrics.BandwidthMHz = bw
		o.Metrics.GainDB = 40
		o.Metrics.NoiseUVrms = 300
		return o
	}
	row := &Row{Bench: "OTA1-A", Magical: mk(50), Genius: mk(49), Ours: mk(55)}
	row.Schematic.CMRRdB = 155
	row.Schematic.BandwidthMHz = 108
	out := FormatRow(row)
	for _, frag := range []string{"OTA1-A", "Offset Voltage", "CMRR", "BandWidth", "DC Gain", "Noise", "Runtime"} {
		if !strings.Contains(out, frag) {
			t.Errorf("FormatRow missing %q:\n%s", frag, out)
		}
	}

	s := Summarize([]*Row{row})
	if s.Ratios[2][0] != 1 {
		t.Errorf("magical ratio must be 1, got %g", s.Ratios[2][0])
	}
	if s.Ratios[2][2] < 1.09 || s.Ratios[2][2] > 1.11 {
		t.Errorf("ours bandwidth ratio = %g, want 1.10", s.Ratios[2][2])
	}
	sum := FormatSummary(s)
	if !strings.Contains(sum, "normalized to MagicalRoute") {
		t.Errorf("summary header missing:\n%s", sum)
	}
}

func TestBreakdownPercentagesSum(t *testing.T) {
	ts := StageTimes{
		Placement:         1 * time.Second,
		ConstructDatabase: 2 * time.Second,
		ModelTraining:     5 * time.Second,
		GuideGeneration:   1 * time.Second,
		GuidedRouting:     1 * time.Second,
	}
	b := BreakdownOf(ts)
	total := b.PlacementPct + b.ConstructDBPct + b.ModelTrainingPct + b.GuideGenerationPct + b.GuidedRoutingPct
	if total < 99.9 || total > 100.1 {
		t.Errorf("percentages sum to %g", total)
	}
	if !strings.Contains(FormatBreakdown(b), "Model Training") {
		t.Errorf("FormatBreakdown missing stage names")
	}
	if (BreakdownOf(StageTimes{}) != Breakdown{}) {
		t.Errorf("zero times must give zero breakdown")
	}
}

func TestTable2BenchmarkList(t *testing.T) {
	bs := Table2Benchmarks()
	if len(bs) != 10 {
		t.Fatalf("Table 2 has 10 benchmarks, got %d", len(bs))
	}
	names := map[string]int{}
	for _, b := range bs {
		names[b.Circuit.Name]++
	}
	if names["OTA1"] != 3 || names["OTA2"] != 3 || names["OTA3"] != 2 || names["OTA4"] != 2 {
		t.Errorf("benchmark multiplicities wrong: %v", names)
	}
}

func TestRunAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation in -short mode")
	}
	f, err := NewFlow(netlist.OTA1(), place.ProfileA, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	a, err := f.RunAblation(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Names) != 6 {
		t.Fatalf("expected 6 variants, got %d", len(a.Names))
	}
	for i, n := range a.Names {
		if a.Potential[i] == 0 && n != "full" {
			t.Errorf("variant %s has zero potential", n)
		}
		if a.Evals[i] <= 0 {
			t.Errorf("variant %s has no evaluations", n)
		}
	}
	out := FormatAblation(a)
	for _, frag := range []string{"no-rbf", "no-pool", "gradient-descent", "2d-distance"} {
		if !strings.Contains(out, frag) {
			t.Errorf("FormatAblation missing %q", frag)
		}
	}
}

func TestDeriveGuidanceFeasible(t *testing.T) {
	if testing.Short() {
		t.Skip("derive in -short mode")
	}
	f, err := NewFlow(netlist.OTA2(), place.ProfileA, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	gd, err := f.DeriveGuidance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := gd.Validate(); err != nil {
		t.Errorf("derived guidance infeasible: %v", err)
	}
	if len(gd.PerNet) != len(f.Circuit.Nets) {
		t.Errorf("guidance size %d", len(gd.PerNet))
	}
}

// relaxCall is one relaxation a path started: its settings and a digest of
// the weights of the model it relaxed.
type relaxCall struct {
	cfg     relax.Config
	weights uint64
}

// recordRelaxations runs fn with the relaxOptimize hook recording every
// relaxation fn starts, in order.
func recordRelaxations(t *testing.T, name string, fn func() error) []relaxCall {
	t.Helper()
	var calls []relaxCall
	relaxOptimize = func(ctx context.Context, m *gnn3d.Model, hg *hetgraph.Graph, cfg relax.Config) (*relax.Result, error) {
		calls = append(calls, relaxCall{cfg: cfg, weights: weightDigest(m)})
		return relax.Optimize(ctx, m, hg, cfg)
	}
	defer func() { relaxOptimize = relax.Optimize }()
	if err := fn(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return calls
}

// weightDigest hashes the bits of every trainable parameter and of the
// target normalization.
func weightDigest(m *gnn3d.Model) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, p := range m.Params() {
		for _, v := range p.Value.Data {
			put(v)
		}
	}
	for _, v := range m.Normalize([gnn3d.NumMetrics]float64{1, 1, 1, 1, 1}) {
		put(v)
	}
	return h.Sum64()
}

// TestRelaxSettingsSharedAcrossPaths pins that every path deriving guidance
// relaxes with the same settings: the CLI's cold flow (RunAnalogFold), its
// figure guidance (DeriveGuidance) and its ablation (RunAblation, N_derive 1,
// each variant differing only in its own ablated knob), and the daemon's
// warm flow (RunAnalogFoldWarm, /v1/route) and /v1/guidance
// (DeriveGuidanceWarm, plus the deferred form that differs only in
// DeferScoring).
func TestRelaxSettingsSharedAcrossPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("trains several models in -short mode")
	}
	ctx := context.Background()
	f, err := NewFlow(netlist.OTA1(), place.ProfileA, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	model, hg, err := f.LoadOrTrainModel(ctx, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := relax.Config{Restarts: 3, NDerive: 2, Seed: 1, MaxIter: 25}
	deferred, ablation := base, base
	deferred.DeferScoring = true
	ablation.NDerive = 1
	paths := []struct {
		name string
		want relax.Config
		n    int // relaxations the path runs
		run  func() error
	}{
		{"cold flow", base, 1, func() error { _, err := f.RunAnalogFold(ctx); return err }},
		{"figure guidance", base, 1, func() error { _, err := f.DeriveGuidance(ctx); return err }},
		{"warm flow", base, 1, func() error { _, err := f.RunAnalogFoldWarm(ctx, model, hg); return err }},
		{"warm guidance", base, 1, func() error { _, err := f.DeriveGuidanceWarm(ctx, model, hg); return err }},
		{"deferred guidance", deferred, 1, func() error { _, err := f.DeriveGuidanceDeferred(ctx, model, hg); return err }},
		{"ablation", ablation, 6, func() error { _, err := f.RunAblation(ctx); return err }},
	}
	for _, p := range paths {
		calls := recordRelaxations(t, p.name, p.run)
		if len(calls) != p.n {
			t.Errorf("%s: %d relaxations, want %d", p.name, len(calls), p.n)
		}
		for i, c := range calls {
			got := c.cfg
			got.NoPool, got.UseGD = false, false // the ablation's own knobs
			if got != p.want {
				t.Errorf("%s: relaxation %d used %+v, want %+v", p.name, i, c.cfg, p.want)
			}
		}
	}
}

// TestOneModelAcrossPaths pins that every path which trains a 3DGNN trains
// the same one: the checkpoint `analogfold train` writes and the daemon
// serves, the cold flow behind Table 2, the figure guidance and the
// ablation's full variant all relax bit-identical weights.
func TestOneModelAcrossPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("trains several models in -short mode")
	}
	ctx := context.Background()
	f, err := NewFlow(netlist.OTA1(), place.ProfileA, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	trained, _, err := f.LoadOrTrainModel(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/model.json"
	if err := trained.Save(path); err != nil {
		t.Fatal(err)
	}
	ckpt, err := gnn3d.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	paths := []struct {
		name string
		run  func() error
	}{
		{"checkpoint", func() error { _, err := f.DeriveGuidanceWarm(ctx, ckpt, nil); return err }},
		{"cold flow", func() error { _, err := f.RunAnalogFold(ctx); return err }},
		{"figure guidance", func() error { _, err := f.DeriveGuidance(ctx); return err }},
		{"ablation full", func() error { _, err := f.RunAblation(ctx); return err }},
	}
	var want uint64
	for i, p := range paths {
		calls := recordRelaxations(t, p.name, p.run)
		if len(calls) == 0 {
			t.Fatalf("%s: no relaxation", p.name)
		}
		// The ablation's first relaxation is its full variant.
		got := calls[0].weights
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("%s relaxed weights %016x, checkpoint %016x", p.name, got, want)
		}
	}
}

func TestJSONReport(t *testing.T) {
	mk := func() *Outcome {
		o := &Outcome{Method: MethodMagical, Times: StageTimes{GuidedRouting: 2 * time.Second}, WirelengthNm: 250000, Vias: 80}
		o.Metrics.OffsetUV = 100
		o.Metrics.CMRRdB = 80
		o.Metrics.BandwidthMHz = 50
		o.Metrics.GainDB = 40
		o.Metrics.NoiseUVrms = 300
		return o
	}
	rows := []*Row{
		{Bench: "OTA1-A", Magical: mk(), Genius: mk(), Ours: mk()},
		{Bench: "OTA1-B", Magical: mk(), Genius: mk(), Ours: mk()},
	}
	rep := BuildJSONReport(rows, time.Unix(0, 0))
	if len(rep.Rows) != 2 || len(rep.Summary.Ratios) != 6 {
		t.Fatalf("report shape wrong: %d rows, %d ratios", len(rep.Rows), len(rep.Summary.Ratios))
	}
	path := t.TempDir() + "/r.json"
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back JSONReport
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Rows[0].Methods["MagicalRoute"].Vias != 80 {
		t.Errorf("round trip lost data")
	}
}

func TestHeadlineImprovements(t *testing.T) {
	mk := func(off, cmrr, bw, gain, noise float64) *Outcome {
		o := &Outcome{}
		o.Metrics.OffsetUV = off
		o.Metrics.CMRRdB = cmrr
		o.Metrics.BandwidthMHz = bw
		o.Metrics.GainDB = gain
		o.Metrics.NoiseUVrms = noise
		return o
	}
	rows := []*Row{
		{Bench: "X-A", Genius: mk(1000, 80, 50, 40, 300), Ours: mk(400, 95, 55, 45, 250), Magical: mk(900, 82, 51, 41, 310)},
		{Bench: "X-B", Genius: mk(500, 90, 60, 50, 200), Ours: mk(450, 85, 90, 48, 210), Magical: mk(520, 89, 61, 49, 205)},
	}
	h := HeadlineImprovements(rows)
	if h.OffsetUV != 600 || h.Bench[0] != "X-A" {
		t.Errorf("offset headline = %g (%s)", h.OffsetUV, h.Bench[0])
	}
	if h.CMRRdB != 15 || h.BandwidthMHz != 30 {
		t.Errorf("CMRR/BW headline = %g/%g", h.CMRRdB, h.BandwidthMHz)
	}
	// Metrics where ours never wins report zero, never negative.
	if h.GainDB != 5 || h.NoiseUVrms != 50 {
		t.Errorf("gain/noise headline = %g/%g", h.GainDB, h.NoiseUVrms)
	}
	out := FormatHeadline(h)
	if !strings.Contains(out, "X-A") || !strings.Contains(out, "Offset Voltage") {
		t.Errorf("FormatHeadline incomplete:\n%s", out)
	}
}

func TestSummarizeSkipsNonPositiveCells(t *testing.T) {
	mk := func(off float64) *Outcome {
		o := &Outcome{Times: StageTimes{GuidedRouting: time.Second}}
		o.Metrics.OffsetUV = off
		o.Metrics.CMRRdB = 80
		o.Metrics.BandwidthMHz = 50
		o.Metrics.GainDB = 40
		o.Metrics.NoiseUVrms = 300
		return o
	}
	rows := []*Row{
		{Bench: "A", Magical: mk(100), Genius: mk(0), Ours: mk(50)}, // genius offset 0: skip offset cell
		{Bench: "B", Magical: mk(200), Genius: mk(100), Ours: mk(100)},
	}
	s := Summarize(rows)
	// Offset ratio computed only from row B: genius 0.5, ours 0.5.
	if s.Ratios[0][1] < 0.49 || s.Ratios[0][1] > 0.51 {
		t.Errorf("offset ratio = %g, want 0.5 from the single valid row", s.Ratios[0][1])
	}
}

func TestSummarizeEmptyRows(t *testing.T) {
	s := Summarize(nil)
	for k := 0; k < 6; k++ {
		for m := 0; m < 3; m++ {
			if s.Ratios[k][m] != 1 {
				t.Errorf("empty summary must default to 1, got %g", s.Ratios[k][m])
			}
		}
	}
}

func TestCacheKeyDistinguishesConfigs(t *testing.T) {
	f1, err := NewFlow(netlist.OTA1(), place.ProfileA, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	o2 := quickOpts()
	o2.Seed = 2
	f2, err := NewFlow(netlist.OTA1(), place.ProfileA, o2)
	if err != nil {
		t.Fatal(err)
	}
	f3, err := NewFlow(netlist.OTA1(), place.ProfileB, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if f1.CacheKey() == f2.CacheKey() || f1.CacheKey() == f3.CacheKey() {
		t.Errorf("cache keys collide: %s / %s / %s", f1.CacheKey(), f2.CacheKey(), f3.CacheKey())
	}
}

func TestGuidanceTransferAcrossPlacements(t *testing.T) {
	// The paper trains per design+placement. Derived guidance applied to a
	// *different* placement of the same circuit must still route legally —
	// the guidance degrades gracefully rather than breaking the router.
	if testing.Short() {
		t.Skip("transfer test in -short mode")
	}
	src, err := NewFlow(netlist.OTA1(), place.ProfileA, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	gd, err := src.DeriveGuidance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dstOpts := quickOpts()
	dstOpts.Seed = 99 // different placement
	dst, err := NewFlow(netlist.OTA1(), place.ProfileB, dstOpts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := route.Route(dst.Grid, gd, route.Config{})
	if err != nil {
		t.Fatalf("transferred guidance broke routing: %v", err)
	}
	m, err := dst.evaluateRouted(res)
	if err != nil {
		t.Fatal(err)
	}
	if m.BandwidthMHz <= 0 || m.OffsetUV <= 0 {
		t.Errorf("degenerate transferred metrics: %+v", m)
	}
}
