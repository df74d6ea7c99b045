package gnn3d

import (
	"path/filepath"
	"testing"
)

// TestStampRoundTrip pins the provenance stamp contract: the circuit name
// survives Save/Load, ValidateStamp accepts the matching (circuit, config)
// pair — with the requested config canonicalized through the same defaulting
// as New — and rejects a wrong circuit or any differing effective config.
func TestStampRoundTrip(t *testing.T) {
	cfg := Config{Seed: 31, Hidden: 16, Layers: 2, RBFBins: 8}
	m := New(cfg)
	m.Circuit = "OTA1"
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Circuit != "OTA1" {
		t.Fatalf("Circuit after round trip = %q, want OTA1", back.Circuit)
	}
	if err := back.ValidateStamp("OTA1", cfg); err != nil {
		t.Errorf("matching stamp rejected: %v", err)
	}
	// Zero-valued knobs in the request normalize to the same effective config
	// the model was built with, so only Seed and the explicit knobs matter.
	partial := Config{Seed: 31, Hidden: 16, Layers: 2, RBFBins: 8, RBFGamma: 0, DMax: 0}
	if err := back.ValidateStamp("OTA1", partial); err != nil {
		t.Errorf("canonically equal config rejected: %v", err)
	}
	if err := back.ValidateStamp("OTA2", cfg); err == nil {
		t.Error("foreign circuit accepted")
	}
	wider := cfg
	wider.Hidden = 32
	if err := back.ValidateStamp("OTA1", wider); err == nil {
		t.Error("differing hidden width accepted")
	}
	reseeded := cfg
	reseeded.Seed = 32
	if err := back.ValidateStamp("OTA1", reseeded); err == nil {
		t.Error("differing seed accepted")
	}
}

// TestStampLegacyCheckpoint pins the migration path: a pre-stamp checkpoint
// (no circuit field) still loads — old artifacts are not bricked — but fails
// validation, which callers treat as a retrain signal.
func TestStampLegacyCheckpoint(t *testing.T) {
	m := New(Config{Seed: 33, Hidden: 16, Layers: 1, RBFBins: 8})
	// Circuit never set: the saved file carries no stamp (omitempty), exactly
	// what a checkpoint written before stamping looks like.
	path := filepath.Join(t.TempDir(), "legacy.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatalf("legacy checkpoint must stay loadable: %v", err)
	}
	if back.Circuit != "" {
		t.Fatalf("legacy checkpoint grew a stamp: %q", back.Circuit)
	}
	if err := back.ValidateStamp("OTA1", Config{Seed: 33, Hidden: 16, Layers: 1, RBFBins: 8}); err == nil {
		t.Error("unstamped checkpoint passed validation")
	}
}

// TestCloneAndFrozenCarryStamp guards the derived-model path: a frozen
// view keeps the provenance stamp, so a checkpoint saved from it still
// validates. (The name predates the removal of Model.Clone.)
func TestCloneAndFrozenCarryStamp(t *testing.T) {
	m := New(Config{Seed: 34, Hidden: 16, Layers: 1, RBFBins: 8})
	m.Circuit = "OTA3"
	if f := m.Frozen(); f.Circuit != "OTA3" {
		t.Errorf("Frozen dropped stamp: %q", f.Circuit)
	}
}
