// Quickstart: place, route and evaluate one OTA with the public flow API.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"analogfold/internal/core"
	"analogfold/internal/netlist"
	"analogfold/internal/place"
)

func main() {
	// Build the OTA1 benchmark (a 2-stage Miller-compensated OTA) and place
	// it under the uniform net-weight profile A.
	ota := netlist.OTA1()
	stats := ota.Stats()
	fmt.Printf("circuit %s: %d PMOS, %d NMOS, %d caps, %d nets\n",
		ota.Name, stats.NumPMOS, stats.NumNMOS, stats.NumCap, stats.NumNets)

	flow, err := core.NewFlow(ota, place.ProfileA, core.Options{
		Seed:       1,
		PlaceIters: 2000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("placed %s: die %v, symmetry axis at x=%d nm\n",
		flow.Name(), flow.Placement.Die, flow.Placement.Axis)

	// Parasitic-free schematic reference.
	sch, err := flow.Schematic()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schematic:  gain %.1f dB, UGB %.1f MHz, CMRR %.1f dB, noise %.1f µVrms\n",
		sch.GainDB, sch.BandwidthMHz, sch.CMRRdB, sch.NoiseUVrms)

	// Route with the unguided baseline router and simulate the extracted
	// post-layout netlist.
	out, err := flow.RunMagical(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	m := out.Metrics
	fmt.Printf("post-layout: gain %.1f dB, UGB %.1f MHz, CMRR %.1f dB, noise %.1f µVrms\n",
		m.GainDB, m.BandwidthMHz, m.CMRRdB, m.NoiseUVrms)
	fmt.Printf("             offset %.0f µV, wirelength %.1f µm, %d vias, routed in %s\n",
		m.OffsetUV, float64(out.WirelengthNm)/1000, out.Vias, out.Runtime())
}
