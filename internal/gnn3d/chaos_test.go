//go:build faultinject

package gnn3d

import (
	"context"
	"errors"
	"testing"

	"analogfold/internal/fault"
	"analogfold/internal/fault/inject"
	"analogfold/internal/netlist"
)

// TestChaosFitConsultsModelNaNPerForward pins the training engine's chaos
// contract: every training and validation forward consults inject.ModelNaN
// exactly once, and one poisoned forward aborts Fit with a typed divergence.
func TestChaosFitConsultsModelNaNPerForward(t *testing.T) {
	defer inject.Reset()
	g := buildGraph(t, netlist.OTA1(), 9)
	samples := fitSamples(t, g, 19) // 2 validation, 17 training per epoch
	cfg := Config{Seed: 5, Hidden: 12, Layers: 1, RBFBins: 6}
	tcfg := TrainConfig{Epochs: 3, LR: 5e-3, Seed: 1, BatchSize: 4, Workers: 2}

	inject.Configure(inject.Schedule{})
	if _, err := New(cfg).Fit(context.Background(), g, samples, tcfg); err != nil {
		t.Fatal(err)
	}
	if got, want := inject.Calls(inject.ModelNaN), tcfg.Epochs*len(samples); got != want {
		t.Errorf("ModelNaN consulted %d times, want one per forward = %d", got, want)
	}

	inject.Configure(inject.Schedule{FailFirst: map[inject.Point]int{inject.ModelNaN: 1}})
	if _, err := New(cfg).Fit(context.Background(), g, samples, tcfg); !errors.Is(err, fault.ErrDiverged) {
		t.Errorf("poisoned forward: got %v, want fault.ErrDiverged", err)
	}
}
