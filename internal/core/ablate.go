package core

import (
	"context"
	"fmt"
	"strings"

	"analogfold/internal/dataset"
	"analogfold/internal/gnn3d"
	"analogfold/internal/relax"
)

// AblationResult compares the full AnalogFold configuration against variants
// with one design choice removed (paper Section 4.2/4.3 claims).
type AblationResult struct {
	// Variants in order: full, no-RBF, no-cost-aware-distance, 2D (no z),
	// relaxation without pool, relaxation with plain gradient descent.
	Names []string
	// ValLoss is the 3DGNN validation loss per model variant (NaN for the
	// relaxation-only variants, which reuse the full model).
	ValLoss []float64
	// Potential is the best potential the relaxation reaches per variant.
	Potential []float64
	// Evals counts objective evaluations per relaxation run.
	Evals []int
}

// RunAblation trains model variants on one shared dataset and relaxes each,
// producing the numbers behind the ablation benchmarks. Corpus, training
// schedule and relaxation settings are the flow's own (datasetConfig,
// fitModel, relaxConfig with N_derive 1), so the full variant relaxes the
// model Table 2 routes with.
func (f *Flow) RunAblation(ctx context.Context) (*AblationResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := f.Opts
	ds, err := dataset.Generate(ctx, f.Grid, o.datasetConfig())
	if err != nil {
		return nil, fmt.Errorf("core: ablation: %w", err)
	}
	hg, err := f.BuildHetGraph()
	if err != nil {
		return nil, fmt.Errorf("core: ablation: %w", err)
	}

	type variant struct {
		name  string
		gcfg  func(gnn3d.Config) gnn3d.Config
		rcfg  func(relax.Config) relax.Config
		reuse bool // reuse the full model (relaxation-only variant)
	}
	variants := []variant{
		{name: "full"},
		{name: "no-rbf", gcfg: func(c gnn3d.Config) gnn3d.Config { c.NoRBF = true; return c }},
		{name: "no-cost-aware", gcfg: func(c gnn3d.Config) gnn3d.Config { c.NoCostAware = true; return c }},
		{name: "2d-distance", gcfg: func(c gnn3d.Config) gnn3d.Config { c.No3D = true; return c }},
		{name: "no-pool", reuse: true, rcfg: func(c relax.Config) relax.Config { c.NoPool = true; return c }},
		{name: "gradient-descent", reuse: true, rcfg: func(c relax.Config) relax.Config { c.UseGD = true; return c }},
	}

	res := &AblationResult{}
	var fullModel *gnn3d.Model
	for _, v := range variants {
		model, valLoss := fullModel, 0.0
		if v.reuse {
			valLoss = res.ValLoss[0]
		} else {
			gcfg := o.gnnConfig()
			if v.gcfg != nil {
				gcfg = v.gcfg(gcfg)
			}
			var rep *gnn3d.TrainReport
			model, rep, err = f.fitModel(ctx, hg, ds.Samples(), gcfg)
			if err != nil {
				return nil, fmt.Errorf("core: ablation %s: %w", v.name, err)
			}
			valLoss = bestVal(rep)
			if fullModel == nil {
				fullModel = model
			}
		}
		rcfg := o.relaxConfig()
		rcfg.NDerive = 1
		if v.rcfg != nil {
			rcfg = v.rcfg(rcfg)
		}
		rr, err := relaxOptimize(ctx, model, hg, rcfg)
		if err != nil {
			return nil, fmt.Errorf("core: ablation %s: %w", v.name, err)
		}
		res.Names = append(res.Names, v.name)
		res.ValLoss = append(res.ValLoss, valLoss)
		res.Potential = append(res.Potential, rr.Potentials[0])
		res.Evals = append(res.Evals, rr.Evals)
	}
	return res, nil
}

func bestVal(rep *gnn3d.TrainReport) float64 {
	best := rep.ValLoss[0]
	for _, v := range rep.ValLoss {
		if v < best {
			best = v
		}
	}
	return best
}

// FormatAblation renders the ablation comparison.
func FormatAblation(a *AblationResult) string {
	var b strings.Builder
	b.WriteString("Ablation (lower is better for both columns)\n")
	fmt.Fprintf(&b, "  %-18s %10s %12s %8s\n", "variant", "val loss", "potential", "evals")
	for i, n := range a.Names {
		fmt.Fprintf(&b, "  %-18s %10.4f %12.4f %8d\n", n, a.ValLoss[i], a.Potential[i], a.Evals[i])
	}
	return b.String()
}
