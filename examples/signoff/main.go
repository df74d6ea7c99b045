// signoff runs the verification artifacts an analog layout goes through
// after routing: DRC, LVS, parasitic extraction to SPEF, AC sweep with phase
// margin, step response, and Monte Carlo offset analysis. It demonstrates
// the substrate packages as a sign-off toolkit on the layout of Table 2's
// MagicalRoute cell: the flow's placement, routed with uniform guidance.
//
// Run with:
//
//	go run ./examples/signoff [-out DIR]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"analogfold/internal/circuit"
	"analogfold/internal/core"
	"analogfold/internal/drc"
	"analogfold/internal/export"
	"analogfold/internal/extract"
	"analogfold/internal/guidance"
	"analogfold/internal/lvs"
	"analogfold/internal/netlist"
	"analogfold/internal/place"
	"analogfold/internal/route"
)

func main() {
	out := flag.String("out", ".", "output directory for artifacts")
	flag.Parse()

	c := netlist.OTA3()
	flow, err := core.NewFlow(c, place.ProfileA, core.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	g := flow.Grid
	res, err := flow.Route(context.Background(), guidance.Uniform(len(c.Nets)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(route.Report(g, res).String())

	// Physical verification.
	if vs := drc.Check(g, res); len(vs) == 0 {
		fmt.Println("DRC: clean")
	} else {
		fmt.Printf("DRC: %d violations\n", len(vs))
	}
	if rep := lvs.Check(g, res); rep.Clean() {
		fmt.Printf("LVS: clean (%d/%d nets verified)\n", rep.NetsOK, rep.NetsTotal)
	} else {
		fmt.Printf("LVS: %d violations\n", len(rep.Violations))
	}

	// Extraction artifacts.
	par := extract.Extract(g, res)
	spef := filepath.Join(*out, c.Name+".spef")
	f, err := os.Create(spef)
	if err != nil {
		log.Fatal(err)
	}
	if err := export.WriteSPEF(f, c, par); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Println("extraction: wrote", spef)

	// Electrical sign-off.
	sim, err := circuit.NewSimulator(c, par)
	if err != nil {
		log.Fatal(err)
	}
	sweep, err := sim.ACSweep(1, 1e10, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AC: phase margin %.1f°\n", circuit.PhaseMarginDeg(sweep))

	tr, err := sim.StepResponse(1e-5, 2000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transient: settles in %.1f ns (±1%%), overshoot %.1f%%\n",
		tr.SettlingTimeNs, tr.OvershootPct)

	mc, err := sim.MonteCarloOffset(1000, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Monte Carlo offset: sigma %.1f µV, p99 %.1f µV over %d samples\n",
		mc.StdUV, mc.P99UV, mc.Samples)

	m, err := sim.Evaluate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("metrics: offset %.0f µV, CMRR %.1f dB, UGB %.1f MHz, gain %.1f dB, noise %.1f µVrms\n",
		m.OffsetUV, m.CMRRdB, m.BandwidthMHz, m.GainDB, m.NoiseUVrms)
}
