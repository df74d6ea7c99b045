package relax

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"analogfold/internal/gnn3d"
	"analogfold/internal/grid"
	"analogfold/internal/guidance"
	"analogfold/internal/hetgraph"
	"analogfold/internal/netlist"
	"analogfold/internal/place"
	"analogfold/internal/tech"
	"analogfold/internal/tensor"
)

func buildGraph(t testing.TB, c *netlist.Circuit, seed int64) *hetgraph.Graph {
	t.Helper()
	p, err := place.Place(c, place.Config{Profile: place.ProfileA, Seed: seed, Iterations: 1500})
	if err != nil {
		t.Fatalf("place: %v", err)
	}
	g, err := grid.Build(p, tech.Sim40())
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	hg, err := hetgraph.Build(g, hetgraph.Config{})
	if err != nil {
		t.Fatalf("hetgraph: %v", err)
	}
	return hg
}

// trainedModel fits a small model to a smooth synthetic objective so the
// potential landscape has real structure to descend.
func trainedModel(t testing.TB, g *hetgraph.Graph, seed int64) *gnn3d.Model {
	t.Helper()
	return fitModel(t, g, gnn3d.Config{Seed: seed, Hidden: 16, Layers: 2, RBFBins: 8})
}

// fitModel is trainedModel for a model of the given configuration; samples
// and minibatches are drawn from cfg.Seed.
func fitModel(t testing.TB, g *hetgraph.Graph, cfg gnn3d.Config) *gnn3d.Model {
	t.Helper()
	seed := cfg.Seed
	m := gnn3d.New(cfg)
	rng := rand.New(rand.NewSource(seed))
	n := len(g.Circuit.Nets)
	var samples []gnn3d.Sample
	for i := 0; i < 20; i++ {
		gd := guidance.Sample(n, rng, 2)
		ct := tensor.New(n, 3)
		copy(ct.Data, gd.Flat())
		sx := 0.0
		for j := 0; j < n; j++ {
			sx += ct.At(j, 0) + 0.5*ct.At(j, 1)
		}
		var y [gnn3d.NumMetrics]float64
		y[0] = 100 * sx // offset: lower better -> prefers small C
		y[1] = 50 + sx  // CMRR: higher better -> prefers large C
		y[2] = 40 + 2*sx
		y[3] = 30 + sx
		y[4] = 300 * sx
		samples = append(samples, gnn3d.Sample{C: ct, Y: y})
	}
	if _, err := m.Fit(context.Background(), g, samples, gnn3d.TrainConfig{Epochs: 15, LR: 5e-3, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPotentialFiniteAndDifferentiable(t *testing.T) {
	c := netlist.OTA1()
	g := buildGraph(t, c, 1)
	m := gnn3d.New(gnn3d.Config{Seed: 1, Hidden: 16, Layers: 2, RBFBins: 8})
	ct := tensor.New(len(c.Nets), 3)
	ct.Fill(1)
	v, grad, err := Potential(m, g, ct, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("potential not finite: %g", v)
	}
	if grad == nil || grad.Norm() == 0 {
		t.Fatalf("no gradient")
	}
	if !tensor.SameShape(grad, ct) {
		t.Fatalf("gradient shape %v", grad.Shape)
	}
}

func TestBarrierDivergesAtBoundary(t *testing.T) {
	c := netlist.OTA1()
	g := buildGraph(t, c, 2)
	m := gnn3d.New(gnn3d.Config{Seed: 2, Hidden: 16, Layers: 2, RBFBins: 8})
	// A strong barrier isolates g(C) from the (untrained) network term.
	cfg := Config{BarrierR: 0.5}
	mid := tensor.New(len(c.Nets), 3)
	mid.Fill(1)
	vMid, _, err := Potential(m, g, mid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	edge := tensor.New(len(c.Nets), 3)
	edge.Fill(1)
	edge.Data[0] = 1e-6 // nearly at the lower boundary
	vEdge, _, err := Potential(m, g, edge, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if vEdge <= vMid {
		t.Errorf("barrier must grow near the boundary: mid=%g edge=%g", vMid, vEdge)
	}
}

func TestOptimizeImprovesOverRandom(t *testing.T) {
	c := netlist.OTA1()
	g := buildGraph(t, c, 3)
	m := trainedModel(t, g, 3)
	cfg := Config{Restarts: 6, MaxIter: 25, NPool: 4, NDerive: 2, Seed: 9}
	res, err := Optimize(context.Background(), m, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Guides) != 2 || len(res.Potentials) != 2 {
		t.Fatalf("derive count: %d", len(res.Guides))
	}
	// Compare the best potential against random guidance.
	rng := rand.New(rand.NewSource(11))
	worse := 0
	for i := 0; i < 10; i++ {
		gd := guidance.Sample(len(c.Nets), rng, 2)
		ct := tensor.New(len(c.Nets), 3)
		copy(ct.Data, gd.Flat())
		v, _, err := Potential(m, g, ct, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if v > res.Potentials[0] {
			worse++
		}
	}
	if worse < 8 {
		t.Errorf("optimized potential %g beats only %d/10 random draws", res.Potentials[0], worse)
	}
}

func TestOptimizeResultsFeasibleAndSorted(t *testing.T) {
	c := netlist.OTA2()
	g := buildGraph(t, c, 4)
	m := trainedModel(t, g, 4)
	res, err := Optimize(context.Background(), m, g, Config{Restarts: 5, MaxIter: 15, NDerive: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, gd := range res.Guides {
		if err := gd.Validate(); err != nil {
			t.Errorf("guide %d infeasible: %v", i, err)
		}
		if i > 0 && res.Potentials[i] < res.Potentials[i-1] {
			t.Errorf("potentials not sorted: %v", res.Potentials)
		}
	}
	if res.Evals == 0 {
		t.Errorf("no objective evaluations recorded")
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	c := netlist.OTA1()
	g := buildGraph(t, c, 6)
	m := trainedModel(t, g, 6)
	cfg := Config{Restarts: 4, MaxIter: 10, Seed: 42}
	r1, err := Optimize(context.Background(), m, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Optimize(context.Background(), m, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Potentials[0] != r2.Potentials[0] {
		t.Errorf("relaxation not deterministic: %g vs %g", r1.Potentials[0], r2.Potentials[0])
	}
}

func TestOptimizeWorkerCountInvariant(t *testing.T) {
	// The parallel execution layer must not change the algorithm: per-restart
	// RNGs and the per-round pool barrier make Workers=1 and Workers=8 runs
	// bit-identical (same seeds → same pool → same top-N_derive guidance).
	c := netlist.OTA1()
	g := buildGraph(t, c, 7)
	m := trainedModel(t, g, 7)
	base := Config{Restarts: 8, MaxIter: 12, NPool: 4, NDerive: 3, Seed: 21, RoundSize: 3}
	cfg1 := base
	cfg1.Workers = 1
	cfg8 := base
	cfg8.Workers = 8
	r1, err := Optimize(context.Background(), m, g, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Optimize(context.Background(), m, g, cfg8)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Evals != r8.Evals {
		t.Errorf("eval counts differ: %d vs %d", r1.Evals, r8.Evals)
	}
	if len(r1.Guides) != len(r8.Guides) {
		t.Fatalf("derive counts differ: %d vs %d", len(r1.Guides), len(r8.Guides))
	}
	for i := range r1.Guides {
		if r1.Potentials[i] != r8.Potentials[i] {
			t.Errorf("potential %d differs: %g vs %g", i, r1.Potentials[i], r8.Potentials[i])
		}
		f1, f8 := r1.Guides[i].Flat(), r8.Guides[i].Flat()
		for j := range f1 {
			if f1[j] != f8[j] {
				t.Fatalf("guide %d element %d differs: %g vs %g", i, j, f1[j], f8[j])
			}
		}
	}
}

func TestOptimizeLeavesModelGradientsClean(t *testing.T) {
	// Relaxation differentiates w.r.t. the guidance input only; it must not
	// leak gradient accumulation into the caller's trained model.
	c := netlist.OTA1()
	g := buildGraph(t, c, 8)
	m := trainedModel(t, g, 8)
	for _, p := range m.Params() {
		p.Grad = nil
	}
	if _, err := Optimize(context.Background(), m, g, Config{Restarts: 2, MaxIter: 5, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	for i, p := range m.Params() {
		if p.Grad != nil {
			t.Fatalf("param %d gradient written during relaxation", i)
		}
	}
}

// TestPotentialLeavesModelGradientsClean pins the oracle to the same
// contract as Optimize: Potential differentiates w.r.t. C only, so every
// weight gradient is bit-unchanged afterwards, and two goroutines may call
// it on one model (make race runs this package).
func TestPotentialLeavesModelGradientsClean(t *testing.T) {
	c := netlist.OTA1()
	g := buildGraph(t, c, 8)
	m := gnn3d.New(gnn3d.Config{Seed: 8, Hidden: 16, Layers: 2, RBFBins: 8})
	snapshot := func() [][]float64 {
		var out [][]float64
		for _, p := range m.Params() {
			if p.Grad == nil {
				out = append(out, nil)
				continue
			}
			out = append(out, append([]float64(nil), p.Grad.Data...))
		}
		return out
	}
	before := snapshot()
	n := len(c.Nets)
	x := guidance.Sample(n, rand.New(rand.NewSource(4)), 2).Flat()
	v, grad, err := Potential(m, g, tensor.FromSlice(append([]float64(nil), x...), n, 3), Config{})
	if err != nil {
		t.Fatal(err)
	}
	after := snapshot()
	for i := range before {
		if (before[i] == nil) != (after[i] == nil) {
			t.Fatalf("param %d gradient allocated by Potential", i)
		}
		for j := range before[i] {
			if math.Float64bits(before[i][j]) != math.Float64bits(after[i][j]) {
				t.Fatalf("param %d grad[%d] changed by Potential: %g -> %g", i, j, before[i][j], after[i][j])
			}
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				cv, cg, err := Potential(m, g, tensor.FromSlice(append([]float64(nil), x...), n, 3), Config{})
				if err != nil {
					errs <- err.Error()
					return
				}
				if cv != v || !slices.Equal(cg.Data, grad.Data) {
					errs <- "concurrent Potential differs from the serial call"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestMetricSignsOrientation(t *testing.T) {
	// Offset and noise are minimized (positive sign), CMRR/BW/gain maximized
	// (negative sign in the potential).
	if MetricSigns[0] <= 0 || MetricSigns[4] <= 0 {
		t.Errorf("offset/noise must have positive sign")
	}
	if MetricSigns[1] >= 0 || MetricSigns[2] >= 0 || MetricSigns[3] >= 0 {
		t.Errorf("CMRR/BW/gain must have negative sign")
	}
}
