package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"path/filepath"

	"analogfold/internal/atomicfile"
	"analogfold/internal/circuit"
	"analogfold/internal/core"
	"analogfold/internal/export"
	"analogfold/internal/extract"
)

// cmdAblate runs the design-choice ablation study of DESIGN.md §4.
func cmdAblate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("ablate", flag.ExitOnError)
	bench := fs.String("bench", "OTA1-A", "benchmark")
	opts := optionsFlags(fs)
	prof := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := prof.start(); err != nil {
		return err
	}
	defer prof.stop()
	c, p, err := parseBench(*bench)
	if err != nil {
		return err
	}
	f, err := core.NewFlow(c, p, opts())
	if err != nil {
		return err
	}
	a, err := f.RunAblation(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("Benchmark %s\n", *bench)
	fmt.Print(core.FormatAblation(a))
	return nil
}

// cmdExport writes the SPICE netlist, SPEF parasitics and DEF layout of a
// routed benchmark.
func cmdExport(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
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

	// Render each artifact in memory and publish it atomically, so an
	// interrupted export never leaves a torn .sp/.spef/.def on disk.
	write := func(name string, fn func(w io.Writer) error) error {
		path := filepath.Join(*outDir, name)
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			return err
		}
		if err := atomicfile.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
		return nil
	}
	if err := write(c.Name+".sp", func(w io.Writer) error { return export.WriteSpice(w, c) }); err != nil {
		return err
	}
	if err := write(c.Name+".spef", func(w io.Writer) error { return export.WriteSPEF(w, c, par) }); err != nil {
		return err
	}
	return write(c.Name+".def", func(w io.Writer) error { return export.WriteDEF(w, f.Grid, res) })
}

// cmdTransient prints the small-signal step response of a benchmark before
// and after routing.
func cmdTransient(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("transient", flag.ExitOnError)
	bench := fs.String("bench", "OTA1-A", "benchmark")
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

	const step = 1e-5
	show := func(label string, pr *extract.Parasitics) error {
		s, err := circuit.NewSimulator(c, pr)
		if err != nil {
			return err
		}
		tr, err := s.StepResponse(step, 2000)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s final %.4g V, settling %.1f ns, overshoot %.1f%%\n",
			label, tr.FinalValue, tr.SettlingTimeNs, tr.OvershootPct)
		return nil
	}
	fmt.Printf("%s step response (%.0f µV differential step)\n", *bench, step*1e6)
	if err := show("schematic", nil); err != nil {
		return err
	}
	return show("post-layout", par)
}

// cmdMC runs Monte Carlo offset analysis on a routed benchmark.
func cmdMC(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("mc", flag.ExitOnError)
	bench := fs.String("bench", "OTA1-A", "benchmark")
	n := fs.Int("n", 1000, "Monte Carlo samples")
	seed := fs.Int64("seed", 1, "seed")
	workers := fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	pr := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := pr.start(); err != nil {
		return err
	}
	defer pr.stop()
	f, res, err := uniformRoute(ctx, *bench, *seed)
	if err != nil {
		return err
	}
	s, err := circuit.NewSimulator(f.Circuit, extract.Extract(f.Grid, res))
	if err != nil {
		return err
	}
	mc, err := s.MonteCarloOffsetWorkers(*n, *seed, *workers)
	if err != nil {
		return err
	}
	fmt.Printf("%s Monte Carlo offset (%d samples):\n", *bench, mc.Samples)
	fmt.Printf("  mean |Vos| %.1f µV, sigma %.1f µV, p99 %.1f µV, worst %.1f µV\n",
		mc.MeanUV, mc.StdUV, mc.P99UV, mc.WorstUV)
	return nil
}
