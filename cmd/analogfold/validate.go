package main

import (
	"context"
	"flag"
	"fmt"

	"analogfold/internal/core"
	"analogfold/internal/dataset"
	"analogfold/internal/gnn3d"
	"analogfold/internal/stats"
	"analogfold/internal/tensor"
)

// metricLabels for validation reporting.
var metricLabels = [gnn3d.NumMetrics]string{"offset", "CMRR", "bandwidth", "gain", "noise"}

// cmdValidate measures the trained performance model's generalization: it
// trains the flow's model (LoadOrTrainModel, the corpus and schedule every
// other command trains with) on -train samples, labels a fresh held-out
// corpus on its own seed, and reports per-metric Pearson and Spearman
// correlation between predictions and measurements. The Spearman column is
// the one the relaxation depends on — it only needs guidance candidates to
// be *ordered* correctly.
func cmdValidate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	bench := fs.String("bench", "OTA1-A", "benchmark")
	trainN := fs.Int("train", 200, "training corpus size")
	testN := fs.Int("test", 40, "held-out corpus size")
	seed := fs.Int64("seed", 1, "seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, prof, err := parseBench(*bench)
	if err != nil {
		return err
	}
	f, err := core.NewFlow(c, prof, core.Options{Seed: *seed, Samples: *trainN, TrainEpochs: 60})
	if err != nil {
		return err
	}
	model, hg, err := f.LoadOrTrainModel(ctx, "")
	if err != nil {
		return err
	}
	fmt.Printf("%s: trained on %d samples\n", *bench, *trainN)

	testDS, err := dataset.Generate(ctx, f.Grid, dataset.Config{
		Samples: *testN, Seed: *seed + 10_000,
	})
	if err != nil {
		return err
	}

	// One stacked forward labels the whole held-out corpus; each row is
	// bit-identical to a sequential Predict on that sample.
	cts := make([]*tensor.Tensor, len(testDS.Entries))
	for i, e := range testDS.Entries {
		cts[i] = tensor.FromSlice(append([]float64(nil), e.C...), testDS.NumNets, 3)
	}
	ys, err := model.PredictBatch(hg, cts)
	if err != nil {
		return err
	}
	var pred, meas [gnn3d.NumMetrics][]float64
	for i, e := range testDS.Entries {
		for k := 0; k < gnn3d.NumMetrics; k++ {
			pred[k] = append(pred[k], ys[i][k])
			meas[k] = append(meas[k], e.Y[k])
		}
	}
	fmt.Printf("held-out correlation over %d fresh samples:\n", len(testDS.Entries))
	fmt.Printf("  %-10s %9s %9s %12s\n", "metric", "pearson", "spearman", "label spread")
	for k := 0; k < gnn3d.NumMetrics; k++ {
		spread := stats.Std(meas[k]) / (1e-12 + stats.Mean(meas[k]))
		fmt.Printf("  %-10s %9.3f %9.3f %11.2f%%\n",
			metricLabels[k], stats.Pearson(pred[k], meas[k]), stats.Spearman(pred[k], meas[k]), 100*spread)
	}
	return nil
}
