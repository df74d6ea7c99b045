package core

import (
	"context"
	"fmt"
	"strings"

	"analogfold/internal/circuit"
	"analogfold/internal/netlist"
	"analogfold/internal/parallel"
	"analogfold/internal/place"
)

// Row is one benchmark's Table-2 block: the schematic reference and the three
// routed methods.
type Row struct {
	Bench     string
	Schematic circuit.Metrics
	Magical   *Outcome
	Genius    *Outcome
	Ours      *Outcome
}

// RunBenchmark executes all methods on one (circuit, placement profile) pair.
// The three routed methods run concurrently on the one flow, whose grid is
// read-only after placement; each route takes its own router scratch and
// each method is internally deterministic, so the row is identical to a
// serial run.
// Opts.TotalTimeout, when set, bounds the whole row; overruns surface as a
// typed fault.ErrTimeout.
func RunBenchmark(ctx context.Context, c *netlist.Circuit, profile place.Profile, opts Options) (*Row, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.TotalTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.TotalTimeout)
		defer cancel()
	}
	f, err := NewFlowCtx(ctx, c, profile, opts)
	if err != nil {
		return nil, err
	}
	row := &Row{Bench: f.Name()}
	if row.Schematic, err = f.Schematic(); err != nil {
		return nil, err
	}
	methods := []struct {
		run func(*Flow, context.Context) (*Outcome, error)
		dst **Outcome
	}{
		{(*Flow).RunMagical, &row.Magical},
		{(*Flow).RunGenius, &row.Genius},
		{(*Flow).RunAnalogFold, &row.Ours},
	}
	if err := parallel.ForEach(ctx, opts.Workers, len(methods), func(i int) error {
		out, err := methods[i].run(f, ctx)
		if err != nil {
			return err
		}
		*methods[i].dst = out
		return nil
	}); err != nil {
		return nil, err
	}
	return row, nil
}

// Table2Benchmarks returns the (circuit, profile) pairs evaluated by the
// paper's Table 2: OTA1-{A,B,C}, OTA2-{A,B,C}, OTA3-{A,B}, OTA4-{A,B}.
func Table2Benchmarks() []struct {
	Circuit *netlist.Circuit
	Profile place.Profile
} {
	type bp = struct {
		Circuit *netlist.Circuit
		Profile place.Profile
	}
	return []bp{
		{netlist.OTA1(), place.ProfileA},
		{netlist.OTA1(), place.ProfileB},
		{netlist.OTA1(), place.ProfileC},
		{netlist.OTA2(), place.ProfileA},
		{netlist.OTA2(), place.ProfileB},
		{netlist.OTA2(), place.ProfileC},
		{netlist.OTA3(), place.ProfileA},
		{netlist.OTA3(), place.ProfileB},
		{netlist.OTA4(), place.ProfileA},
		{netlist.OTA4(), place.ProfileB},
	}
}

// FormatRow renders one benchmark block in the paper's Table-2 layout.
func FormatRow(r *Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Bench)
	line := func(name, unit string, sch float64, schOK bool, mag, gen, ours float64) {
		schS := "-"
		if schOK {
			schS = fmt.Sprintf("%.4g", sch)
		}
		fmt.Fprintf(&b, "  %-22s %10s %10.4g %10.4g %10.4g\n",
			name+"("+unit+")", schS, mag, gen, ours)
	}
	line("Offset Voltage", "µV", 0, false,
		r.Magical.Metrics.OffsetUV, r.Genius.Metrics.OffsetUV, r.Ours.Metrics.OffsetUV)
	line("CMRR", "dB", r.Schematic.CMRRdB, true,
		r.Magical.Metrics.CMRRdB, r.Genius.Metrics.CMRRdB, r.Ours.Metrics.CMRRdB)
	line("BandWidth", "MHz", r.Schematic.BandwidthMHz, true,
		r.Magical.Metrics.BandwidthMHz, r.Genius.Metrics.BandwidthMHz, r.Ours.Metrics.BandwidthMHz)
	line("DC Gain", "dB", r.Schematic.GainDB, true,
		r.Magical.Metrics.GainDB, r.Genius.Metrics.GainDB, r.Ours.Metrics.GainDB)
	line("Noise", "µVrms", r.Schematic.NoiseUVrms, true,
		r.Magical.Metrics.NoiseUVrms, r.Genius.Metrics.NoiseUVrms, r.Ours.Metrics.NoiseUVrms)
	fmt.Fprintf(&b, "  %-22s %10s %10.3g %10.3g %10.3g\n", "Runtime(s)", "-",
		r.Magical.Runtime().Seconds(), r.Genius.Runtime().Seconds(), r.Ours.Runtime().Seconds())
	return b.String()
}

// Summary is the paper's "Average" block: every metric of every method
// normalized to MagicalRoute (= 1.000).
type Summary struct {
	// Indexed [metric][method] with methods ordered Magical, Genius, Ours.
	// Metrics ordered: offset, CMRR, bandwidth, gain, noise, runtime.
	Ratios [6][3]float64
	Rows   int
}

// metricNames for summary printing.
var metricNames = [6]string{
	"Offset Voltage(µV) ↓", "CMRR(dB) ↑", "BandWidth(MHz) ↑",
	"DC Gain(dB) ↑", "Noise(µVrms) ↓", "Runtime(s) ↓",
}

// Summarize computes geometric-mean ratios versus the MagicalRoute baseline.
func Summarize(rows []*Row) Summary {
	var s Summary
	s.Rows = len(rows)
	logsum := [6][3]float64{}
	count := [6]int{}
	for _, r := range rows {
		vals := func(o *Outcome) [6]float64 {
			return [6]float64{
				o.Metrics.OffsetUV, o.Metrics.CMRRdB, o.Metrics.BandwidthMHz,
				o.Metrics.GainDB, o.Metrics.NoiseUVrms, o.Runtime().Seconds(),
			}
		}
		mv, gv, ov := vals(r.Magical), vals(r.Genius), vals(r.Ours)
		for k := 0; k < 6; k++ {
			if mv[k] <= 0 || gv[k] <= 0 || ov[k] <= 0 {
				continue // ratios undefined; skip this cell
			}
			logsum[k][0] += 0 // log(1)
			logsum[k][1] += ln(gv[k] / mv[k])
			logsum[k][2] += ln(ov[k] / mv[k])
			count[k]++
		}
	}
	for k := 0; k < 6; k++ {
		for m := 0; m < 3; m++ {
			if count[k] == 0 {
				s.Ratios[k][m] = 1
				continue
			}
			s.Ratios[k][m] = exp(logsum[k][m] / float64(count[k]))
		}
	}
	return s
}

// FormatSummary renders the Average block.
func FormatSummary(s Summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Average over %d benchmarks (normalized to MagicalRoute)\n", s.Rows)
	fmt.Fprintf(&b, "  %-24s %10s %10s %10s\n", "", "[16]", "[11]", "Ours")
	for k := 0; k < 6; k++ {
		fmt.Fprintf(&b, "  %-24s %10.3f %10.3f %10.3f\n",
			metricNames[k], s.Ratios[k][0], s.Ratios[k][1], s.Ratios[k][2])
	}
	return b.String()
}
