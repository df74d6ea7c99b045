// Package analogfold_bench contains the benchmark harness that regenerates
// every table and figure of the paper (see DESIGN.md §4 for the experiment
// index). Each benchmark prints the same rows/series the paper reports;
// absolute numbers come from the simulated substrate, the shapes are the
// reproduction target.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package analogfold_bench

import (
	"context"
	"testing"

	"analogfold/internal/circuit"
	"analogfold/internal/core"
	"analogfold/internal/dataset"
	"analogfold/internal/extract"
	"analogfold/internal/gnn3d"
	"analogfold/internal/grid"
	"analogfold/internal/guidance"
	"analogfold/internal/hetgraph"
	"analogfold/internal/netlist"
	"analogfold/internal/place"
	"analogfold/internal/relax"
	"analogfold/internal/route"
	"analogfold/internal/tech"
	"analogfold/internal/tensor"
)

// quickOpts are reduced-scale learning settings so the full harness runs in
// minutes; use cmd/analogfold table2 for full-scale reproduction.
func quickOpts() core.Options {
	return core.Options{
		Samples: 16, TrainEpochs: 8, RelaxRestarts: 4, NDerive: 2,
		PlaceIters: 1500, VAECorpus: 2, VAEEpochs: 10, Seed: 1,
	}
}

func builtGrid(b *testing.B, c *netlist.Circuit) *grid.Grid {
	b.Helper()
	p, err := place.Place(c, place.Config{Profile: place.ProfileA, Seed: 1, Iterations: 1500})
	if err != nil {
		b.Fatal(err)
	}
	g, err := grid.Build(p, tech.Sim40())
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkTable1Stats regenerates Table 1 (benchmark circuit statistics).
func BenchmarkTable1Stats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, c := range netlist.Benchmarks() {
			s := c.Stats()
			if i == 0 {
				b.Logf("Table1 %s: PMOS=%d NMOS=%d Cap=%d Res=%d Total=%d",
					c.Name, s.NumPMOS, s.NumNMOS, s.NumCap, s.NumRes, s.Total)
			}
		}
	}
}

// benchTable2Row runs the three-method comparison for one benchmark at quick
// scale — one iteration regenerates one Table-2 block.
func benchTable2Row(b *testing.B, c func() *netlist.Circuit, prof place.Profile) {
	for i := 0; i < b.N; i++ {
		row, err := core.RunBenchmark(context.Background(), c(), prof, quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", core.FormatRow(row))
		}
	}
}

// BenchmarkTable2_OTA1A .. _OTA4B regenerate the ten Table-2 blocks.
func BenchmarkTable2_OTA1A(b *testing.B) { benchTable2Row(b, netlist.OTA1, place.ProfileA) }

// BenchmarkTable2_OTA1B covers OTA1 under profile B.
func BenchmarkTable2_OTA1B(b *testing.B) { benchTable2Row(b, netlist.OTA1, place.ProfileB) }

// BenchmarkTable2_OTA1C covers OTA1 under profile C.
func BenchmarkTable2_OTA1C(b *testing.B) { benchTable2Row(b, netlist.OTA1, place.ProfileC) }

// BenchmarkTable2_OTA2A covers OTA2 under profile A.
func BenchmarkTable2_OTA2A(b *testing.B) { benchTable2Row(b, netlist.OTA2, place.ProfileA) }

// BenchmarkTable2_OTA2B covers OTA2 under profile B.
func BenchmarkTable2_OTA2B(b *testing.B) { benchTable2Row(b, netlist.OTA2, place.ProfileB) }

// BenchmarkTable2_OTA2C covers OTA2 under profile C.
func BenchmarkTable2_OTA2C(b *testing.B) { benchTable2Row(b, netlist.OTA2, place.ProfileC) }

// BenchmarkTable2_OTA3A covers OTA3 under profile A.
func BenchmarkTable2_OTA3A(b *testing.B) { benchTable2Row(b, netlist.OTA3, place.ProfileA) }

// BenchmarkTable2_OTA3B covers OTA3 under profile B.
func BenchmarkTable2_OTA3B(b *testing.B) { benchTable2Row(b, netlist.OTA3, place.ProfileB) }

// BenchmarkTable2_OTA4A covers OTA4 under profile A (the paper's corner case).
func BenchmarkTable2_OTA4A(b *testing.B) { benchTable2Row(b, netlist.OTA4, place.ProfileA) }

// BenchmarkTable2_OTA4B covers OTA4 under profile B.
func BenchmarkTable2_OTA4B(b *testing.B) { benchTable2Row(b, netlist.OTA4, place.ProfileB) }

// BenchmarkFig5Breakdown regenerates the Figure-5 runtime breakdown on OTA1.
func BenchmarkFig5Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := core.NewFlow(netlist.OTA1(), place.ProfileA, quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		out, err := f.RunAnalogFold(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", core.FormatBreakdown(core.BreakdownOf(out.Times)))
		}
	}
}

// BenchmarkFig1Guidance regenerates the Figure-1 non-uniform guidance data.
func BenchmarkFig1Guidance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := core.NewFlow(netlist.OTA1(), place.ProfileA, quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		gd, err := f.DeriveGuidance(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if err := gd.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Render regenerates the Figure-6 routed-layout comparison.
func BenchmarkFig6Render(b *testing.B) {
	f, err := core.NewFlow(netlist.OTA1(), place.ProfileA, quickOpts())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gd, err := f.GeniusGuidance(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.Route(context.Background(), gd); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Component benchmarks (throughput of each substrate) ---

// BenchmarkPlaceOTA1 measures the annealing placer.
func BenchmarkPlaceOTA1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := place.Place(netlist.OTA1(), place.Config{Profile: place.ProfileA, Seed: 1, Iterations: 2000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteOTA1 measures one full detailed-routing pass.
func BenchmarkRouteOTA1(b *testing.B) {
	g := builtGrid(b, netlist.OTA1())
	gd := guidance.Uniform(len(g.Place.Circuit.Nets))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := route.Route(g, gd, route.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteOTA3 measures routing the larger telescopic benchmark.
func BenchmarkRouteOTA3(b *testing.B) {
	g := builtGrid(b, netlist.OTA3())
	gd := guidance.Uniform(len(g.Place.Circuit.Nets))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := route.Route(g, gd, route.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtract measures parasitic extraction.
func BenchmarkExtract(b *testing.B) {
	g := builtGrid(b, netlist.OTA1())
	res, err := route.Route(g, guidance.Uniform(len(g.Place.Circuit.Nets)), route.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		extract.Extract(g, res)
	}
}

// BenchmarkSimulate measures one five-metric MNA evaluation.
func BenchmarkSimulate(b *testing.B) {
	g := builtGrid(b, netlist.OTA1())
	res, err := route.Route(g, guidance.Uniform(len(g.Place.Circuit.Nets)), route.Config{})
	if err != nil {
		b.Fatal(err)
	}
	par := extract.Extract(g, res)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := circuit.Evaluate(g.Place.Circuit, par); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGNNForward measures one 3DGNN prediction.
func BenchmarkGNNForward(b *testing.B) {
	g := builtGrid(b, netlist.OTA1())
	hg, err := hetgraph.Build(g, hetgraph.Config{})
	if err != nil {
		b.Fatal(err)
	}
	m := gnn3d.New(gnn3d.Config{Seed: 1})
	cu := guidance.Uniform(len(g.Place.Circuit.Nets))
	ct := tensor.FromSlice(cu.Flat(), len(cu.PerNet), 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Predict(hg, ct); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatasetSample measures one label generation (route + extract +
// simulate), the unit of database construction.
func BenchmarkDatasetSample(b *testing.B) {
	g := builtGrid(b, netlist.OTA1())
	gd := guidance.Uniform(len(g.Place.Circuit.Nets))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.Label(context.Background(), g, gd, route.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRelaxation measures the pool-assisted potential relaxation on a
// trained-from-scratch small model.
func BenchmarkRelaxation(b *testing.B) {
	g := builtGrid(b, netlist.OTA1())
	hg, err := hetgraph.Build(g, hetgraph.Config{})
	if err != nil {
		b.Fatal(err)
	}
	m := gnn3d.New(gnn3d.Config{Seed: 1, Hidden: 16, Layers: 2, RBFBins: 8})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := relax.Optimize(context.Background(), m, hg, relax.Config{Restarts: 4, MaxIter: 15, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
