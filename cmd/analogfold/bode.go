package main

import (
	"context"
	"flag"
	"fmt"
	"path/filepath"

	"analogfold/internal/atomicfile"
	"analogfold/internal/circuit"
	"analogfold/internal/extract"
)

// cmdBode writes schematic and post-layout AC sweeps (Bode data) as CSV and
// prints the phase margins.
func cmdBode(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("bode", flag.ExitOnError)
	bench := fs.String("bench", "OTA1-A", "benchmark")
	outDir := fs.String("out", ".", "output directory")
	seed := fs.Int64("seed", 1, "placement seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, res, err := uniformRoute(ctx, *bench, *seed)
	if err != nil {
		return err
	}
	c := f.Circuit
	par := extract.Extract(f.Grid, res)

	emit := func(label string, pr *extract.Parasitics) error {
		s, err := circuit.NewSimulator(c, pr)
		if err != nil {
			return err
		}
		sweep, err := s.ACSweep(1, 1e10, 16)
		if err != nil {
			return err
		}
		path := filepath.Join(*outDir, fmt.Sprintf("bode_%s_%s.csv", c.Name, label))
		if err := atomicfile.WriteFile(path, []byte(circuit.SweepCSV(sweep)), 0o644); err != nil {
			return err
		}
		fmt.Printf("%-12s phase margin %.1f°  (%s)\n", label, circuit.PhaseMarginDeg(sweep), path)
		return nil
	}
	if err := emit("schematic", nil); err != nil {
		return err
	}
	return emit("postlayout", par)
}
