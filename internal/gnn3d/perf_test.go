package gnn3d_test

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"analogfold/internal/ad"
	"analogfold/internal/gnn3d"
	"analogfold/internal/guidance"
	"analogfold/internal/hetgraph"
	"analogfold/internal/netlist"
	"analogfold/internal/tensor"
)

// perfFixture is the shared graph + trained model of the perf suite — the
// same OTA1 fixture the golden tests pin, so the benchmarks measure the
// configuration whose numerics are already locked down.
func perfFixture(tb testing.TB) (*hetgraph.Graph, *gnn3d.Model) {
	tb.Helper()
	fx := sharedGolden(tb, netlist.OTA1(), 11)
	return fx.hg, fx.m
}

// perfGuidances draws n fixed non-uniform guidance tensors.
func perfGuidances(nets, n int, seed int64) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*tensor.Tensor, n)
	for i := range out {
		gd := guidance.Sample(nets, rng, 2)
		out[i] = tensor.FromSlice(gd.Flat(), nets, 3)
	}
	return out
}

// TestModelSteadyStateAllocs pins the tentpole claim: once the session tape
// is warm, a full guidance-gradient cycle (SetC → Forward → Backward) runs in
// a handful of allocations, independent of model size. The transient path
// allocates per op — thousands per evaluation on this fixture — so the
// session must allocate at least 5× less, and on a multi-CPU host, where wall
// time is not dominated by scheduling, it must not be slower.
func TestModelSteadyStateAllocs(t *testing.T) {
	hg, m := perfFixture(t)
	nets := len(hg.Circuit.Nets)
	cs := perfGuidances(nets, 4, 7)

	sess := gnn3d.NewInferSession(m, hg)
	session := func(i int) {
		if err := sess.SetC(cs[i%len(cs)].Data); err != nil {
			t.Fatal(err)
		}
		pred := sess.Forward()
		if err := ad.Backward(ad.Sum(pred)); err != nil {
			t.Fatal(err)
		}
	}
	transient := func(i int) {
		cv := ad.Leaf(cs[i%len(cs)].Clone(), true)
		pred, err := m.Forward(hg, cv)
		if err != nil {
			t.Fatal(err)
		}
		if err := ad.Backward(ad.Sum(pred)); err != nil {
			t.Fatal(err)
		}
	}
	// Warm: first pass records the tape, second stabilizes the scratch pool.
	session(0)
	session(1)

	perRun := func(runs int, cycle func(int)) float64 {
		i := 0
		return testing.AllocsPerRun(runs, func() {
			cycle(i)
			i++
		})
	}
	allocs := perRun(50, session)
	if allocs > 8 {
		t.Errorf("steady-state session cycle: %.1f allocs/run, want <= 8", allocs)
	}
	if ta := perRun(5, transient); ta < 5*math.Max(1, allocs) {
		t.Errorf("transient cycle: %.0f allocs/run, want >= 5x the session's %.1f", ta, allocs)
	}

	hits, misses := sess.Tape().Stats()
	if hits == 0 {
		t.Fatalf("tape never replayed (hits=0, misses=%d)", misses)
	}

	if runtime.NumCPU() >= 2 {
		wall := func(cycle func(int)) time.Duration {
			t0 := time.Now()
			for i := 0; i < 30; i++ {
				cycle(i)
			}
			return time.Since(t0)
		}
		s, tr := wall(session), wall(transient)
		t.Logf("30 cycles: session %v, transient %v", s, tr)
		if s > tr {
			t.Errorf("tape-backed session slower than the transient path: %v > %v for 30 cycles", s, tr)
		}
	}
}

// TestPredictBatchMatchesSequential asserts the stacked batch forward is
// bit-identical, row for row, to sequential Predict calls.
func TestPredictBatchMatchesSequential(t *testing.T) {
	hg, m := perfFixture(t)
	nets := len(hg.Circuit.Nets)
	cs := perfGuidances(nets, 5, 17)

	batch, err := m.PredictBatch(hg, cs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(cs) {
		t.Fatalf("batch returned %d rows, want %d", len(batch), len(cs))
	}
	for i, c := range cs {
		seq, err := m.Predict(hg, c)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < gnn3d.NumMetrics; k++ {
			if batch[i][k] != seq[k] {
				t.Errorf("guidance %d metric %d: batch %.17g != sequential %.17g",
					i, k, batch[i][k], seq[k])
			}
		}
	}
}

// TestPredictBatchStackedAllocs pins the cost model of a serving wave: one
// stacked PredictBatch over four members' four candidates each allocates at
// least 2× less than four per-member calls.
func TestPredictBatchStackedAllocs(t *testing.T) {
	hg, m := perfFixture(t)
	const members, perMember = 4, 4
	cs := perfGuidances(len(hg.Circuit.Nets), members*perMember, 7)
	predict := func(cs []*tensor.Tensor) {
		if _, err := m.PredictBatch(hg, cs); err != nil {
			t.Fatal(err)
		}
	}
	stacked := testing.AllocsPerRun(5, func() { predict(cs) })
	split := testing.AllocsPerRun(5, func() {
		for k := 0; k < members; k++ {
			predict(cs[k*perMember : (k+1)*perMember])
		}
	})
	if split < 2*stacked {
		t.Errorf("stacked PredictBatch: %.0f allocs, per-member calls %.0f, want >= 2x fewer stacked", stacked, split)
	}
}

// TestSessionForwardMatchesModelForward asserts the tape-backed session
// reproduces the transient forward and its guidance gradient bit-for-bit,
// including after many interleaved re-evaluations.
func TestSessionForwardMatchesModelForward(t *testing.T) {
	hg, m := perfFixture(t)
	nets := len(hg.Circuit.Nets)
	cs := perfGuidances(nets, 6, 23)

	sess := gnn3d.NewInferSession(m, hg)
	for round := 0; round < 2; round++ { // second round replays a warm tape
		for i, c := range cs {
			if err := sess.SetC(c.Data); err != nil {
				t.Fatal(err)
			}
			sp := sess.Forward()
			if err := ad.Backward(ad.Sum(sp)); err != nil {
				t.Fatal(err)
			}

			cv := ad.Leaf(c.Clone(), true)
			mp, err := m.Forward(hg, cv)
			if err != nil {
				t.Fatal(err)
			}
			if err := ad.Backward(ad.Sum(mp)); err != nil {
				t.Fatal(err)
			}

			for k := range mp.Value.Data {
				if sp.Value.Data[k] != mp.Value.Data[k] {
					t.Fatalf("round %d guidance %d: session value[%d] %.17g != transient %.17g",
						round, i, k, sp.Value.Data[k], mp.Value.Data[k])
				}
			}
			sg, mg := sess.C().Grad, cv.Grad
			for k := range mg.Data {
				if sg.Data[k] != mg.Data[k] {
					t.Fatalf("round %d guidance %d: session grad[%d] %.17g != transient %.17g",
						round, i, k, sg.Data[k], mg.Data[k])
				}
			}
		}
	}
}

// BenchmarkModelCore measures one Forward+Backward guidance-gradient cycle —
// the inner loop of the potential relaxation — on the tape-backed session
// versus the transient per-op-allocating path, on the golden fixture's
// Hidden 16 / RBFBins 8 model. The served arm times the session cycle at
// the size the daemon and the flows use (gnn3d.Defaults: Hidden 24,
// RBFBins 12), fitted on the same objective. The session arm is the
// ≥5×-fewer-allocations claim of the perf PR; run with -benchmem.
func BenchmarkModelCore(b *testing.B) {
	hg, m := perfFixture(b)
	nets := len(hg.Circuit.Nets)
	cs := perfGuidances(nets, 4, 7)

	session := func(m *gnn3d.Model) func(b *testing.B) {
		return func(b *testing.B) {
			sess := gnn3d.NewInferSession(m, hg)
			cycle := func(i int) {
				if err := sess.SetC(cs[i%len(cs)].Data); err != nil {
					b.Fatal(err)
				}
				if err := ad.Backward(ad.Sum(sess.Forward())); err != nil {
					b.Fatal(err)
				}
			}
			// Warm as TestModelSteadyStateAllocs does: the first cycle records
			// the tape, the second stabilizes the scratch pool.
			cycle(0)
			cycle(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle(i)
			}
		}
	}
	b.Run("session", session(m))
	served := gnn3d.Defaults()
	served.Seed = 11
	b.Run("served", session(fitModel(b, hg, served)))
	b.Run("transient", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cv := ad.Leaf(cs[i%len(cs)].Clone(), true)
			pred, err := m.Forward(hg, cv)
			if err != nil {
				b.Fatal(err)
			}
			if err := ad.Backward(ad.Sum(pred)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCandidateScoring measures scoring NDerive=4 guidance candidates as
// one stacked ForwardBatch versus four sequential Predicts — the relax final
// scoring step this PR batched.
func BenchmarkCandidateScoring(b *testing.B) {
	hg, m := perfFixture(b)
	nets := len(hg.Circuit.Nets)
	cs := perfGuidances(nets, 4, 7)

	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.PredictBatch(hg, cs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, c := range cs {
				if _, err := m.Predict(hg, c); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkFit measures training at the size and batch the flows use
// (Defaults, batch 4): one op trains a fresh model for three epochs on 40
// synthetic samples (goldenModel's objective) on the golden OTA1 fixture, 34
// trained and 6 validated per epoch, on one worker; us/sample divides by the
// 120 sample passes. The tape arm is Fit; the transient arm is the oracle
// trainer that rebuilt the autodiff graph for every sample. Run with
// -benchmem.
func BenchmarkFit(b *testing.B) {
	hg, _ := goldenGraph(b, netlist.OTA1(), 11)
	samples := syntheticSamples(len(hg.Circuit.Nets), 40, rand.New(rand.NewSource(31)))
	cfg := gnn3d.Defaults()
	tcfg := gnn3d.TrainConfig{Epochs: 3, Seed: 1, BatchSize: 4, Workers: 1}
	arm := func(fit func(*gnn3d.Model) error) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := fit(gnn3d.New(cfg)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*tcfg.Epochs*len(samples)), "us/sample")
		}
	}
	b.Run("tape", arm(func(m *gnn3d.Model) error {
		_, err := m.Fit(context.Background(), hg, samples, tcfg)
		return err
	}))
	b.Run("transient", arm(func(m *gnn3d.Model) error {
		_, err := gnn3d.FitTransient(m, context.Background(), hg, samples, tcfg)
		return err
	}))
}
