package core

import (
	"context"
	"fmt"
	"strings"

	"analogfold/internal/fault"
	"analogfold/internal/gnn3d"
	"analogfold/internal/hetgraph"
	"analogfold/internal/netlist"
	"analogfold/internal/place"
	"analogfold/internal/relax"
)

// BuildHetGraph constructs the flow's heterogeneous routing graph — the model
// input the serving daemon builds once per benchmark and reuses across
// requests (it is read-only during inference and relaxation).
func (f *Flow) BuildHetGraph() (*hetgraph.Graph, error) {
	hg, err := hetgraph.Build(f.Grid, hetgraph.Config{})
	if err != nil {
		return nil, fmt.Errorf("core: hetgraph: %w", err)
	}
	return hg, nil
}

// RunAnalogFoldWarm is the request-scoped serving entry point: it reuses an
// already-trained model (a loaded checkpoint) and a prebuilt heterogeneous
// graph, skipping database construction and 3DGNN training entirely. Routing
// and evaluation only read the flow's grid, so any number of concurrent
// requests may share one Flow and one Model. The failure model matches
// RunAnalogFold: cancellation and deadlines abort with a typed fault, every
// other failure walks the elite → uniform → MagicalRoute ladder and is
// recorded in Outcome.Degradation. A nil model starts at the ladder bottom —
// the shape the daemon serves while its circuit breaker is open.
func (f *Flow) RunAnalogFoldWarm(ctx context.Context, model *gnn3d.Model, hg *hetgraph.Graph) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if model != nil && hg == nil {
		var err error
		if hg, err = f.BuildHetGraph(); err != nil {
			return nil, err
		}
	}
	return f.relaxAndRoute(ctx, model, hg, &DegradationReport{FinalRung: RungElite}, StageTimes{Placement: f.placeTime})
}

// DeriveGuidanceWarm runs only the potential relaxation on a warm model and
// returns every derived guidance set with its potential — the /v1/guidance
// payload. The relaxation settings are RunAnalogFold's (Options.relaxConfig),
// so for a fixed checkpoint, flow and options the guidance here is
// bit-identical to what the full warm flow routes with.
func (f *Flow) DeriveGuidanceWarm(ctx context.Context, model *gnn3d.Model, hg *hetgraph.Graph) (*relax.Result, error) {
	return f.deriveGuidance(ctx, model, hg, false)
}

// DeriveGuidanceDeferred is DeriveGuidanceWarm with candidate scoring
// deferred: Result.Predictions stays nil until ScoreGuidanceResults fills it.
// The serving daemon's micro-batching stage uses it so the candidates of
// every relaxation in a wave ride one stacked PredictBatch call.
func (f *Flow) DeriveGuidanceDeferred(ctx context.Context, model *gnn3d.Model, hg *hetgraph.Graph) (*relax.Result, error) {
	return f.deriveGuidance(ctx, model, hg, true)
}

func (f *Flow) deriveGuidance(ctx context.Context, model *gnn3d.Model, hg *hetgraph.Graph, deferScoring bool) (*relax.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if hg == nil {
		var err error
		if hg, err = f.BuildHetGraph(); err != nil {
			return nil, err
		}
	}
	var rres *relax.Result
	var t StageTimes // the guidance payload reports no stage times
	err := f.stage(ctx, fault.StageRelaxation, bounded, &t, func(ctx context.Context) (err error) {
		cfg := f.Opts.relaxConfig()
		cfg.DeferScoring = deferScoring
		rres, err = relaxOptimize(ctx, model, hg, cfg)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("core: warm guidance: %w", err)
	}
	return rres, nil
}

// ScoreGuidanceResults is the wave-scoped second half of the deferred path:
// it scores the candidates of every result in rs through a single stacked
// PredictBatch call. Errors carry the same wrapping as a scoring failure
// inside DeriveGuidanceWarm, so callers degrade identically on both paths.
func ScoreGuidanceResults(ctx context.Context, model *gnn3d.Model, hg *hetgraph.Graph, rs []*relax.Result) error {
	if err := relax.ScoreResults(ctx, model, hg, rs); err != nil {
		return fmt.Errorf("core: warm guidance: %w", err)
	}
	return nil
}

// WithOptions returns a shallow request-scoped copy of the flow carrying the
// given options. The placement, grid and timings are shared (read-only); only
// the knobs differ, so a daemon can serve per-request seeds and restart
// budgets from one cached flow.
func (f *Flow) WithOptions(opts Options) *Flow {
	fc := *f
	fc.Opts = opts.withDefaults()
	return &fc
}

// ParseBenchmark resolves a Table-2 benchmark id like "OTA3-B" — a bare
// circuit name defaults to profile A — to its circuit and placement profile.
// It is the single naming authority shared by the CLI and the serving daemon.
func ParseBenchmark(name string) (*netlist.Circuit, place.Profile, error) {
	cname, pname, found := strings.Cut(name, "-")
	if !found {
		pname = string(place.ProfileA)
	}
	var c *netlist.Circuit
	switch cname {
	case "OTA1":
		c = netlist.OTA1()
	case "OTA2":
		c = netlist.OTA2()
	case "OTA3":
		c = netlist.OTA3()
	case "OTA4":
		c = netlist.OTA4()
	case "OTA5":
		c = netlist.OTA5()
	default:
		return nil, "", fmt.Errorf("core: unknown circuit %q", cname)
	}
	prof := place.Profile(pname)
	switch prof {
	case place.ProfileA, place.ProfileB, place.ProfileC, place.ProfileD:
	default:
		return nil, "", fmt.Errorf("core: unknown profile %q", pname)
	}
	return c, prof, nil
}
