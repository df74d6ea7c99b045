package core

import (
	"context"
	"fmt"

	"analogfold/internal/guidance"
	"analogfold/internal/route"
)

// DeriveGuidance returns the single best guidance set of the AnalogFold
// learning stack (database → 3DGNN → potential relaxation). The model is the
// flow's one model (LoadOrTrainModel without a cache), and the relaxation is
// the warm path's, so the visualization commands (Figures 1 and 6) render
// the guidance Table 2 routes with.
func (f *Flow) DeriveGuidance(ctx context.Context) (guidance.Set, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	model, hg, err := f.LoadOrTrainModel(ctx, "")
	if err != nil {
		return guidance.Set{}, fmt.Errorf("core: derive: %w", err)
	}
	rres, err := f.deriveGuidance(ctx, model, hg, false)
	if err != nil {
		return guidance.Set{}, err
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
	if ctx == nil {
		ctx = context.Background()
	}
	gd, err := f.geniusGuidance(ctx, new(StageTimes))
	if err != nil {
		return nil, err
	}
	res, err := route.RouteCtx(ctx, f.Grid, gd, f.Opts.RouteCfg)
	if err != nil {
		return nil, fmt.Errorf("core: genius route: %w", err)
	}
	return res, nil
}
