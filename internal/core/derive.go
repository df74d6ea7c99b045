package core

import (
	"context"
	"fmt"

	"analogfold/internal/fault"
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

// GeniusGuidance returns the guidance the GeniusRoute baseline routes with
// (see geniusGuidance), for rendering (Figure 6).
func (f *Flow) GeniusGuidance(ctx context.Context) (guidance.Set, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return f.geniusGuidance(ctx, new(StageTimes))
}

// Route is the flow's one routing entry point: it routes gd on the flow's
// grid with Opts.RouteCfg as one bounded guided-routing stage. With uniform
// guidance it is Table 2's MagicalRoute layout; every command that exports,
// simulates or renders a routed solution routes through it.
func (f *Flow) Route(ctx context.Context, gd guidance.Set) (*route.Result, error) {
	return f.routeStage(ctx, gd, new(StageTimes))
}

// routeStage is Route with the stage's time added to t.GuidedRouting.
func (f *Flow) routeStage(ctx context.Context, gd guidance.Set, t *StageTimes) (res *route.Result, err error) {
	err = f.stage(ctx, fault.StageRouting, bounded, t, func(ctx context.Context) (err error) {
		res, err = route.RouteCtx(ctx, f.Grid, gd, f.Opts.RouteCfg)
		return err
	})
	return res, err
}
