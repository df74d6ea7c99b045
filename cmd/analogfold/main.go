// Command analogfold reproduces the paper's experiments from the command
// line:
//
//	analogfold table1                    # benchmark statistics (Table 1)
//	analogfold table2 [-bench OTA1-A]    # method comparison (Table 2)
//	analogfold fig5   [-bench OTA1-A]    # runtime breakdown (Figure 5)
//	analogfold fig6   [-bench OTA1-A]    # routing solution SVGs (Figure 6)
//	analogfold fig1   [-bench OTA1-A]    # non-uniform guidance viz (Figure 1)
//	analogfold route  [-bench OTA1-A]    # route once, print stats + DRC
//	analogfold dataset [-bench OTA1-A]   # generate and save a training set
//	analogfold ablate [-bench OTA1-A]    # design-choice ablation study
//	analogfold export [-bench OTA1-A]    # SPICE + SPEF + DEF artifacts
//	analogfold transient [-bench OTA1-A] # step response before/after routing
//	analogfold validate [-bench OTA1-A]  # 3DGNN held-out generalization report
//	analogfold bode   [-bench OTA1-A]    # AC sweeps (CSV) + phase margins
//	analogfold mc     [-bench OTA1-A]    # Monte Carlo offset analysis
//	analogfold train  [-bench OTA1-A]    # train a 3DGNN checkpoint for analogfoldd
//	analogfold guidance [-bench OTA1-A]  # derive guidance from a checkpoint
//
// Every command that places does so through core.NewFlow. route, export,
// transient, mc and bode route the flow's placement with uniform guidance
// (Table 2's MagicalRoute layout), and dataset labels on it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"analogfold/internal/atomicfile"
	"analogfold/internal/cliutil"
	"analogfold/internal/cluster"
	"analogfold/internal/core"
	"analogfold/internal/dataset"
	"analogfold/internal/drc"
	"analogfold/internal/guidance"
	"analogfold/internal/netlist"
	"analogfold/internal/place"
	"analogfold/internal/route"
	"analogfold/internal/viz"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	args := os.Args[2:]
	// SIGINT/SIGTERM cancel the root context: every stage observes it and
	// unwinds with a typed fault instead of dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch cmd {
	case "table1":
		err = cmdTable1()
	case "table2":
		err = cmdTable2(ctx, args)
	case "fig5":
		err = cmdFig5(ctx, args)
	case "fig6":
		err = cmdFig6(ctx, args)
	case "fig1":
		err = cmdFig1(ctx, args)
	case "route":
		err = cmdRoute(ctx, args)
	case "dataset":
		err = cmdDataset(ctx, args)
	case "ablate":
		err = cmdAblate(ctx, args)
	case "export":
		err = cmdExport(ctx, args)
	case "transient":
		err = cmdTransient(ctx, args)
	case "validate":
		err = cmdValidate(ctx, args)
	case "bode":
		err = cmdBode(ctx, args)
	case "mc":
		err = cmdMC(ctx, args)
	case "train":
		err = cmdTrain(ctx, args)
	case "guidance":
		err = cmdGuidance(ctx, args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "analogfold:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: analogfold <table1|table2|fig5|fig6|fig1|route|dataset|ablate|export|transient|validate|bode|mc|train|guidance> [flags]`)
}

// parseBench resolves "-bench OTA1-A" through the shared core parser, so the
// CLI and the analogfoldd daemon accept exactly the same benchmark names.
func parseBench(name string) (*netlist.Circuit, place.Profile, error) {
	return core.ParseBenchmark(name)
}

// uniformRoute places bench through core.NewFlowCtx at the default scale
// with seed and routes it with uniform guidance through the flow: the layout
// of Table 2's MagicalRoute cell. route, export, transient, mc and bode all
// start from it.
func uniformRoute(ctx context.Context, bench string, seed int64) (*core.Flow, *route.Result, error) {
	c, p, err := parseBench(bench)
	if err != nil {
		return nil, nil, err
	}
	f, err := core.NewFlowCtx(ctx, c, p, core.Options{Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	res, err := f.Route(ctx, guidance.Uniform(len(c.Nets)))
	return f, res, err
}

// optionsFlags registers the flow-option flags shared with analogfoldd.
func optionsFlags(fs *flag.FlagSet) func() core.Options {
	return cliutil.OptionsFlags(fs)
}

func cmdTable1() error {
	fmt.Println("Table 1: Benchmark circuits information.")
	fmt.Printf("%-10s %7s %7s %6s %6s %7s %6s %7s\n",
		"Benchmark", "#PMOS", "#NMOS", "#Cap", "#Res", "#Dev", "#Nets", "#Total")
	for _, c := range netlist.Benchmarks() {
		s := c.Stats()
		fmt.Printf("%-10s %7d %7d %6d %6d %7d %6d %7d\n",
			c.Name, s.NumPMOS, s.NumNMOS, s.NumCap, s.NumRes, s.NumDevices, s.NumNets, s.Total)
	}
	return nil
}

func cmdTable2(ctx context.Context, args []string) (err error) {
	fs := flag.NewFlagSet("table2", flag.ExitOnError)
	bench := fs.String("bench", "", "single benchmark (e.g. OTA1-A); empty = all ten")
	jsonOut := fs.String("json", "", "also write a machine-readable report to this path")
	opts := optionsFlags(fs)
	obsFlags := cliutil.ObsFlags(fs)
	prof := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ob, err := obsFlags(opts().Seed)
	if err != nil {
		return err
	}
	defer ob.CloseInto(&err)
	ctx, end := ob.WithSpan(ctx, "cli.table2")
	defer end()
	if err := prof.start(); err != nil {
		return err
	}
	defer prof.stop()

	var rows []*core.Row
	run := func(c *netlist.Circuit, p place.Profile) error {
		ob.Logger.Info("running benchmark", "bench", fmt.Sprintf("%s-%s", c.Name, p))
		row, err := core.RunBenchmark(ctx, c, p, opts())
		if err != nil {
			return fmt.Errorf("%s-%s: %w", c.Name, p, err)
		}
		fmt.Print(core.FormatRow(row))
		rows = append(rows, row)
		return nil
	}
	if *bench != "" {
		c, p, err := parseBench(*bench)
		if err != nil {
			return err
		}
		if err := run(c, p); err != nil {
			return err
		}
	} else {
		for _, b := range core.Table2Benchmarks() {
			if err := run(b.Circuit, b.Profile); err != nil {
				return err
			}
		}
	}
	if len(rows) > 1 {
		fmt.Print(core.FormatSummary(core.Summarize(rows)))
		fmt.Print(core.FormatHeadline(core.HeadlineImprovements(rows)))
	}
	if *jsonOut != "" {
		rep := core.BuildJSONReport(rows, time.Now())
		if err := rep.WriteJSON(*jsonOut); err != nil {
			return err
		}
		ob.Logger.Info("wrote report", "path", *jsonOut)
	}
	return nil
}

func cmdFig5(ctx context.Context, args []string) (err error) {
	fs := flag.NewFlagSet("fig5", flag.ExitOnError)
	bench := fs.String("bench", "OTA1-A", "benchmark")
	opts := optionsFlags(fs)
	obsFlags := cliutil.ObsFlags(fs)
	prof := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ob, err := obsFlags(opts().Seed)
	if err != nil {
		return err
	}
	defer ob.CloseInto(&err)
	ctx, end := ob.WithSpan(ctx, "cli.fig5")
	defer end()
	if err := prof.start(); err != nil {
		return err
	}
	defer prof.stop()
	c, p, err := parseBench(*bench)
	if err != nil {
		return err
	}
	f, err := core.NewFlowCtx(ctx, c, p, opts())
	if err != nil {
		return err
	}
	out, err := f.RunAnalogFold(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("Benchmark %s, total %s\n", *bench, out.Times.Total())
	fmt.Print(core.FormatBreakdown(core.BreakdownOf(out.Times)))
	return nil
}

func cmdFig6(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("fig6", flag.ExitOnError)
	bench := fs.String("bench", "OTA1-A", "benchmark")
	outDir := fs.String("out", ".", "output directory for SVGs")
	opts := optionsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, p, err := parseBench(*bench)
	if err != nil {
		return err
	}
	f, err := core.NewFlow(c, p, opts())
	if err != nil {
		return err
	}
	// GeniusRoute solution, then ours, each routed through the flow.
	gd, err := f.GeniusGuidance(ctx)
	if err != nil {
		return err
	}
	gen, err := f.Route(ctx, gd)
	if err != nil {
		return err
	}
	if gd, err = f.DeriveGuidance(ctx); err != nil {
		return err
	}
	ours, err := f.Route(ctx, gd)
	if err != nil {
		return err
	}
	for name, pair := range map[string]struct {
		res   *route.Result
		title string
	}{
		"fig6_genius.svg":     {gen, *bench + " GeniusRoute"},
		"fig6_analogfold.svg": {ours, *bench + " AnalogFold"},
	} {
		path := *outDir + "/" + name
		if err := atomicfile.WriteFile(path, []byte(viz.RoutingSVG(f.Grid, pair.res, pair.title)), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return nil
}

func cmdFig1(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("fig1", flag.ExitOnError)
	bench := fs.String("bench", "OTA1-A", "benchmark")
	outDir := fs.String("out", ".", "output directory")
	opts := optionsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, p, err := parseBench(*bench)
	if err != nil {
		return err
	}
	f, err := core.NewFlow(c, p, opts())
	if err != nil {
		return err
	}
	gd, err := f.DeriveGuidance(ctx)
	if err != nil {
		return err
	}
	svgPath := *outDir + "/fig1_guidance.svg"
	csvPath := *outDir + "/fig1_guidance.csv"
	if err := atomicfile.WriteFile(svgPath, []byte(viz.GuidanceSVG(f.Grid, gd, *bench+" non-uniform guidance")), 0o644); err != nil {
		return err
	}
	if err := atomicfile.WriteFile(csvPath, []byte(viz.GuidanceCSV(f.Grid, gd)), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", svgPath)
	fmt.Println("wrote", csvPath)
	return nil
}

func cmdRoute(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	bench := fs.String("bench", "OTA1-A", "benchmark")
	seed := fs.Int64("seed", 1, "placement seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, res, err := uniformRoute(ctx, *bench, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("%s: routed in %d iterations\n", *bench, res.Iterations)
	fmt.Print(route.Report(f.Grid, res).String())
	vs := drc.Check(f.Grid, res)
	fmt.Printf("DRC: %d violations\n", len(vs))
	for _, v := range vs {
		fmt.Println("  ", v)
	}
	return nil
}

func cmdDataset(ctx context.Context, args []string) (err error) {
	fs := flag.NewFlagSet("dataset", flag.ExitOnError)
	bench := fs.String("bench", "OTA1-A", "benchmark")
	n := fs.Int("n", 48, "number of samples")
	out := fs.String("out", "dataset.json", "output file")
	seed := fs.Int64("seed", 1, "seed")
	workers := fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	coordinator := fs.String("coordinator", "", "coordinator base URL (e.g. http://host:8000): farm shards across the cluster instead of generating locally")
	shardSize := fs.Int("shard-size", 0, "samples per shard for distributed/resumable generation (0 = 32)")
	resumeDir := fs.String("resume-dir", "", "crash-safe shard journal directory; a killed run restarted with the same flags resumes instead of regenerating")
	obsFlags := cliutil.ObsFlags(fs)
	pr := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ob, err := obsFlags(*seed)
	if err != nil {
		return err
	}
	defer ob.CloseInto(&err)
	ctx, end := ob.WithSpan(ctx, "cli.dataset")
	defer end()
	if err := pr.start(); err != nil {
		return err
	}
	defer pr.stop()
	if *coordinator != "" {
		// Distributed path: the coordinator leases shards to its replicas and
		// answers with the dataset's canonical Save bytes, which are written
		// verbatim — the file is byte-identical to a local run's.
		return fetchDataset(ctx, *coordinator, cluster.DatasetRequest{
			Bench: *bench, Samples: *n, Seed: *seed, ShardSize: *shardSize,
			IncludeUniform: true,
		}, *out)
	}
	c, prof, err := parseBench(*bench)
	if err != nil {
		return err
	}
	// Label on the flow's placement at the default scale, which is what a
	// default daemon's /v1/dataset/shard labels on for the same -seed.
	f, err := core.NewFlowCtx(ctx, c, prof, core.Options{Seed: *seed, Workers: *workers})
	if err != nil {
		return err
	}
	cfg := dataset.Config{Samples: *n, Seed: *seed, Workers: *workers,
		IncludeUniform: true, ShardSize: *shardSize}
	var ds *dataset.Dataset
	if *resumeDir != "" {
		var rep *dataset.ResumeReport
		ds, rep, err = dataset.GenerateResumable(ctx, c.Name, len(c.Nets), cfg, *resumeDir, dataset.LocalExec(f.Grid, cfg))
		if err != nil {
			return err
		}
		fmt.Printf("shards: %d resumed, %d generated, %d corrupt regenerated\n",
			rep.Resumed, rep.Generated, rep.Corrupt)
	} else {
		ds, err = dataset.Generate(ctx, f.Grid, cfg)
		if err != nil {
			return err
		}
	}
	if err := ds.Save(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %d samples to %s\n", len(ds.Entries), *out)
	return nil
}

// fetchDataset POSTs a distributed generation job to the coordinator and
// writes the response body verbatim (atomically), then loads it back through
// the digest-verifying dataset.Load so a truncated or corrupted transfer is
// rejected instead of silently trained on.
func fetchDataset(ctx context.Context, base string, req cluster.DatasetRequest, out string) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(base, "/")+"/v1/dataset", bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("coordinator: HTTP %d: %s", resp.StatusCode, firstLine(b))
	}
	if err := atomicfile.WriteFile(out, b, 0o644); err != nil {
		return err
	}
	ds, err := dataset.Load(out)
	if err != nil {
		return fmt.Errorf("coordinator response failed verification: %w", err)
	}
	if resumed := resp.Header.Get(cluster.HeaderResumed); resumed != "" && resumed != "0" {
		fmt.Printf("shards resumed from coordinator journal: %s\n", resumed)
	}
	fmt.Printf("wrote %d samples (%d dropped) to %s via %s\n",
		len(ds.Entries), ds.Dropped, out, base)
	return nil
}

// firstLine trims an error body to its first line for terminal display.
func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}
