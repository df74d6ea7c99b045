package core

import (
	"context"
	"fmt"

	"analogfold/internal/dataset"
	"analogfold/internal/gnn3d"
	"analogfold/internal/guidance"
	"analogfold/internal/hetgraph"
	"analogfold/internal/route"
)

// DeriveGuidance runs the AnalogFold learning stack (database → 3DGNN →
// potential relaxation) and returns the single best guidance set. Used by
// the visualization commands (Figure 1) that want the guidance itself rather
// than a full evaluation.
func (f *Flow) DeriveGuidance(ctx context.Context) (guidance.Set, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := f.Opts
	ds, err := dataset.Generate(ctx, f.Grid, dataset.Config{
		Samples: o.Samples, Workers: o.Workers, Seed: o.Seed,
		RouteCfg: o.RouteCfg, IncludeUniform: true,
	})
	if err != nil {
		return guidance.Set{}, fmt.Errorf("core: derive: %w", err)
	}
	hg, err := hetgraph.Build(f.Grid, hetgraph.Config{})
	if err != nil {
		return guidance.Set{}, fmt.Errorf("core: derive: %w", err)
	}
	gcfg := o.GNN
	gcfg.Seed = o.Seed
	model := gnn3d.New(gcfg)
	if _, err := model.Fit(ctx, hg, ds.Samples(), gnn3d.TrainConfig{
		Epochs: o.TrainEpochs, Seed: o.Seed,
		BatchSize: o.TrainBatch, Workers: o.Workers,
	}); err != nil {
		return guidance.Set{}, fmt.Errorf("core: derive: %w", err)
	}
	rres, err := relaxOptimize(ctx, model, hg, o.relaxConfig())
	if err != nil {
		return guidance.Set{}, fmt.Errorf("core: derive: %w", err)
	}
	return rres.Guides[0], nil
}

// RunAnalogFoldRouted derives guidance and returns the routed solution, for
// rendering (Figure 6).
func (f *Flow) RunAnalogFoldRouted(ctx context.Context) (*route.Result, error) {
	gd, err := f.DeriveGuidance(ctx)
	if err != nil {
		return nil, err
	}
	res, err := route.RouteCtx(ctx, f.Grid, gd, f.Opts.RouteCfg)
	if err != nil {
		return nil, fmt.Errorf("core: analogfold route: %w", err)
	}
	return res, nil
}

// RunGeniusRouted runs the GeniusRoute baseline and returns the routed
// solution, for rendering (Figure 6).
func (f *Flow) RunGeniusRouted(ctx context.Context) (*route.Result, error) {
	gd, err := f.geniusGuidance(ctx)
	if err != nil {
		return nil, err
	}
	res, err := route.RouteCtx(ctx, f.Grid, gd, f.Opts.RouteCfg)
	if err != nil {
		return nil, fmt.Errorf("core: genius route: %w", err)
	}
	return res, nil
}
