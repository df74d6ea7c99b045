package relax

import (
	"math"
	"math/rand"
	"testing"

	"analogfold/internal/gnn3d"
	"analogfold/internal/guidance"
	"analogfold/internal/netlist"
	"analogfold/internal/optim"
	"analogfold/internal/tensor"
)

// TestEvaluatorMatchesPotential asserts the tape-backed evaluator reproduces
// the transient-path Potential bit-for-bit — value and full guidance
// gradient — across repeated evaluations of distinct points (so a warm,
// replaying tape is what is being compared, not just the recording pass),
// and at every point of a real L-BFGS run, line-search probes included, so
// a whole relaxation trajectory is pinned to the reference.
func TestEvaluatorMatchesPotential(t *testing.T) {
	c := netlist.OTA1()
	g := buildGraph(t, c, 5)
	m := trainedModel(t, g, 5)
	cfg := Config{}.withDefaults()
	n := len(c.Nets)

	ev := newEvaluator(m, g, cfg)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 6; trial++ {
		gd := guidance.Sample(n, rng, 2)
		x := gd.Flat()

		ef, eg, err := ev.potential(x, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The session owns eg; copy before the reference evaluation runs.
		egCopy := append([]float64(nil), eg.Data...)

		pf, pg, err := Potential(m, g, tensor.FromSlice(append([]float64(nil), x...), n, 3), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ef != pf {
			t.Errorf("trial %d: evaluator V=%.17g != Potential V=%.17g", trial, ef, pf)
		}
		for i := range pg.Data {
			if egCopy[i] != pg.Data[i] {
				t.Fatalf("trial %d: grad[%d] evaluator %.17g != Potential %.17g",
					trial, i, egCopy[i], pg.Data[i])
			}
		}
	}

	// Drive L-BFGS with the evaluator, as Optimize does, and check the
	// reference at every point the optimizer asks for.
	points := 0
	obj := func(x []float64) (float64, []float64) {
		for _, v := range x {
			if v <= 0 || v >= cfg.CMax {
				return math.Inf(1), make([]float64, len(x))
			}
		}
		ef, eg, err := ev.potential(x, cfg)
		if err != nil {
			t.Fatal(err)
		}
		egCopy := append([]float64(nil), eg.Data...)
		pf, pg, err := Potential(m, g, tensor.FromSlice(append([]float64(nil), x...), n, 3), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ef != pf {
			t.Fatalf("L-BFGS point %d: evaluator V=%.17g != Potential V=%.17g", points, ef, pf)
		}
		for i := range pg.Data {
			if egCopy[i] != pg.Data[i] {
				t.Fatalf("L-BFGS point %d: grad[%d] evaluator %.17g != Potential %.17g",
					points, i, egCopy[i], pg.Data[i])
			}
		}
		points++
		return ef, egCopy
	}
	out := optim.LBFGS(obj, guidance.Sample(n, rng, cfg.CMax).Flat(), cfg.MaxIter, 8, 1e-7)
	if out.Iterations < 2 || points <= out.Iterations {
		t.Errorf("L-BFGS ran %d iterations over %d points; want a real trajectory", out.Iterations, points)
	}
	t.Logf("L-BFGS: %d iterations, %d points checked, V %.6g", out.Iterations, points, out.F)
}

// BenchmarkRelaxStep measures one objective evaluation V(C) + ∂V/∂C — the
// unit the L-BFGS inner loop pays per iteration — on the tape-backed
// evaluator versus the transient-path Potential, the test oracle, at the
// golden test size (Hidden 16, RBFBins 8); the served arm runs the evaluator
// at the size the experiments and the daemon use (gnn3d.Defaults()). Run
// with -benchmem; the session arms should be near allocation-free.
func BenchmarkRelaxStep(b *testing.B) {
	c := netlist.OTA1()
	g := buildGraph(b, c, 5)
	m := trainedModel(b, g, 5)
	cfg := Config{}.withDefaults()
	n := len(c.Nets)

	rng := rand.New(rand.NewSource(9))
	xs := make([][]float64, 4)
	for i := range xs {
		xs[i] = guidance.Sample(n, rng, 2).Flat()
	}

	session := func(m *gnn3d.Model) func(*testing.B) {
		return func(b *testing.B) {
			ev := newEvaluator(m, g, cfg)
			eval := func(i int) {
				if _, _, err := ev.potential(xs[i%len(xs)], cfg); err != nil {
					b.Fatal(err)
				}
			}
			// Two warm-up evaluations record the tape and stabilize its
			// scratch pool, so allocs/op is the steady state at any -benchtime.
			eval(0)
			eval(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eval(i)
			}
		}
	}
	b.Run("session", session(m))
	served := gnn3d.Defaults()
	served.Seed = 5
	b.Run("served", session(fitModel(b, g, served)))
	b.Run("transient", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x := xs[i%len(xs)]
			cT := tensor.FromSlice(append([]float64(nil), x...), n, 3)
			if _, _, err := Potential(m, g, cT, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
