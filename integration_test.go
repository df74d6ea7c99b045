package analogfold_bench

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"analogfold/internal/circuit"
	"analogfold/internal/core"
	"analogfold/internal/dataset"
	"analogfold/internal/drc"
	"analogfold/internal/extract"
	"analogfold/internal/gnn3d"
	"analogfold/internal/guidance"
	"analogfold/internal/hetgraph"
	"analogfold/internal/lvs"
	"analogfold/internal/netlist"
	"analogfold/internal/place"
	"analogfold/internal/relax"
	"analogfold/internal/route"
)

// TestEndToEndVerified runs the complete three-method flow on OTA1-A at
// reduced learning scale and independently verifies every routed layout with
// the DRC and LVS checkers — the integration test across all modules.
func TestEndToEndVerified(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test in -short mode")
	}
	f, err := core.NewFlow(netlist.OTA1(), place.ProfileA, quickOpts())
	if err != nil {
		t.Fatal(err)
	}

	verify := func(name string, res *route.Result) {
		t.Helper()
		if vs := drc.Check(f.Grid, res); len(vs) > 0 {
			t.Errorf("%s: %d DRC violations, first: %v", name, len(vs), vs[0])
		}
		if rep := lvs.Check(f.Grid, res); !rep.Clean() {
			t.Errorf("%s: %d LVS violations, first: %v", name, len(rep.Violations), rep.Violations[0])
		}
	}

	genius, err := f.RunGeniusRouted(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	verify("genius", genius)

	ours, err := f.RunAnalogFoldRouted(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	verify("analogfold", ours)

	// Metrics must be produced by all methods and stay physical.
	sch, err := f.Schematic()
	if err != nil {
		t.Fatal(err)
	}
	for _, runner := range []func(context.Context) (*core.Outcome, error){f.RunMagical} {
		out, err := runner(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		m := out.Metrics
		if m.BandwidthMHz <= 0 || m.BandwidthMHz > sch.BandwidthMHz*1.05 {
			t.Errorf("%s bandwidth %.1f vs schematic %.1f", out.Method, m.BandwidthMHz, sch.BandwidthMHz)
		}
		if m.OffsetUV <= 0 {
			t.Errorf("%s offset %.1f must be positive post-layout", out.Method, m.OffsetUV)
		}
		if m.NoiseUVrms < sch.NoiseUVrms*0.5 || m.NoiseUVrms > sch.NoiseUVrms*2 {
			t.Errorf("%s noise %.1f far from schematic %.1f", out.Method, m.NoiseUVrms, sch.NoiseUVrms)
		}
	}
}

// TestCrossCircuitConsistency checks invariants that must hold across all
// four benchmarks: schematic metrics are reproducible and post-layout offset
// is strictly positive.
func TestCrossCircuitConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test in -short mode")
	}
	for _, c := range netlist.Benchmarks() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			f, err := core.NewFlow(c, place.ProfileB, quickOpts())
			if err != nil {
				t.Fatal(err)
			}
			s1, err := f.Schematic()
			if err != nil {
				t.Fatal(err)
			}
			s2, err := f.Schematic()
			if err != nil {
				t.Fatal(err)
			}
			if s1 != s2 {
				t.Errorf("schematic evaluation not reproducible")
			}
			out, err := f.RunMagical(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if out.Metrics.OffsetUV <= 0 {
				t.Errorf("post-layout offset %.2f", out.Metrics.OffsetUV)
			}
		})
	}
}

// TestParallelSpeedup gates the four parallelized phases — relaxation, Monte
// Carlo, dataset generation and minibatch training: their geometric-mean
// speedup at Workers=GOMAXPROCS over Workers=1 must not fall below 1.0. It
// runs only where that can be measured, at GOMAXPROCS >= 4 on a multi-CPU
// host. Results are bit-identical across worker counts (the
// *WorkerCountInvariant tests), so only wall time moves.
func TestParallelSpeedup(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if testing.Short() || runtime.NumCPU() < 2 || workers < 4 {
		t.Skipf("speedup gate needs GOMAXPROCS >= 4 on a multi-CPU host (have %d on %d CPUs)", workers, runtime.NumCPU())
	}
	g := obsGrid(t)
	hg, err := hetgraph.Build(g, hetgraph.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := gnn3d.New(gnn3d.Config{Seed: 1, Hidden: 16, Layers: 2, RBFBins: 8})
	res, err := route.Route(g, guidance.Uniform(len(g.Place.Circuit.Nets)), route.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := circuit.NewSimulator(g.Place.Circuit, extract.Extract(g, res))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Generate(context.Background(), g, dataset.Config{Samples: 8, Seed: 1, IncludeUniform: true})
	if err != nil {
		t.Fatal(err)
	}
	phases := []struct {
		name string
		run  func(w int) error
	}{
		{"relaxation", func(w int) error {
			_, err := relax.Optimize(context.Background(), m, hg, relax.Config{Restarts: 8, MaxIter: 10, Seed: 1, Workers: w})
			return err
		}},
		{"montecarlo", func(w int) error {
			_, err := sim.MonteCarloOffsetWorkers(4000, 1, w)
			return err
		}},
		{"dataset", func(w int) error {
			_, err := dataset.Generate(context.Background(), g, dataset.Config{Samples: 8, Seed: 1, Workers: w, IncludeUniform: true})
			return err
		}},
		{"train", func(w int) error {
			mm := gnn3d.New(gnn3d.Config{Seed: 1, Hidden: 16, Layers: 2, RBFBins: 8})
			_, err := mm.Fit(context.Background(), hg, ds.Samples(), gnn3d.TrainConfig{Epochs: 3, Seed: 1, BatchSize: 4, Workers: w})
			return err
		}},
	}
	wall := func(run func(int) error, w int) time.Duration {
		t0 := time.Now()
		if err := run(w); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}
	logSum := 0.0
	for _, p := range phases {
		wall(p.run, workers) // warm caches so neither arm pays first-touch costs
		serial, par := wall(p.run, 1), wall(p.run, workers)
		t.Logf("%-10s serial %v  parallel(%d) %v", p.name, serial, workers, par)
		logSum += math.Log(serial.Seconds() / par.Seconds())
	}
	if geo := math.Exp(logSum / float64(len(phases))); geo < 1.0 {
		t.Errorf("geomean speedup %.2fx < 1.0x at GOMAXPROCS %d on %d CPUs", geo, workers, runtime.NumCPU())
	}
}
