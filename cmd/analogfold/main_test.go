package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"analogfold/internal/core"
	"analogfold/internal/dataset"
	"analogfold/internal/export"
	"analogfold/internal/extract"
	"analogfold/internal/guidance"
	"analogfold/internal/netlist"
	"analogfold/internal/place"
)

func TestParseBench(t *testing.T) {
	cases := []struct {
		in      string
		circuit string
		profile place.Profile
		ok      bool
	}{
		{"OTA1-A", "OTA1", place.ProfileA, true},
		{"OTA2-B", "OTA2", place.ProfileB, true},
		{"OTA3-C", "OTA3", place.ProfileC, true},
		{"OTA4-D", "OTA4", place.ProfileD, true},
		{"OTA1", "OTA1", place.ProfileA, true}, // default profile
		{"OTA9-A", "", "", false},
		{"OTA1-Z", "", "", false},
		{"", "", "", false},
	}
	for _, tc := range cases {
		c, p, err := parseBench(tc.in)
		if tc.ok {
			if err != nil {
				t.Errorf("parseBench(%q) unexpected error %v", tc.in, err)
				continue
			}
			if c.Name != tc.circuit || p != tc.profile {
				t.Errorf("parseBench(%q) = %s-%s", tc.in, c.Name, p)
			}
		} else if err == nil {
			t.Errorf("parseBench(%q) should fail", tc.in)
		}
	}
}

func TestCmdTable1(t *testing.T) {
	if err := cmdTable1(); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsFlagsQuick(t *testing.T) {
	// -quick must produce strictly smaller settings than the defaults.
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	get := optionsFlags(fs)
	if err := fs.Parse([]string{"-quick"}); err != nil {
		t.Fatal(err)
	}
	q := get()

	fs2 := flag.NewFlagSet("t2", flag.ContinueOnError)
	get2 := optionsFlags(fs2)
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	d := get2()
	if q.Samples >= d.Samples || q.TrainEpochs >= d.TrainEpochs {
		t.Errorf("-quick not smaller: %+v vs %+v", q, d)
	}
}

// TestCmdDatasetLabelsOnFlowPlacement pins that the local corpus is the one a
// default daemon's /v1/dataset/shard labels for the same seed: samples
// labeled on core.NewFlow's grid.
func TestCmdDatasetLabelsOnFlowPlacement(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ds.json")
	if err := cmdDataset(context.Background(), []string{"-bench", "OTA1-A", "-n", "4", "-seed", "1", "-out", out}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.NewFlow(netlist.OTA1(), place.ProfileA, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Generate(context.Background(), f.Grid, dataset.Config{Samples: 4, Seed: 1, IncludeUniform: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ds.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("dataset bytes differ from the flow-placement corpus (%d vs %d bytes)", len(got), len(want))
	}
}

// TestCmdExportRoutesThroughFlow pins that export writes the flow's uniform
// route, Table 2's MagicalRoute layout.
func TestCmdExportRoutesThroughFlow(t *testing.T) {
	dir := t.TempDir()
	if err := cmdExport(context.Background(), []string{"-bench", "OTA1-A", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	c := netlist.OTA1()
	f, err := core.NewFlow(c, place.ProfileA, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Route(context.Background(), guidance.Uniform(len(c.Nets)))
	if err != nil {
		t.Fatal(err)
	}
	var spef, def bytes.Buffer
	if err := export.WriteSPEF(&spef, c, extract.Extract(f.Grid, res)); err != nil {
		t.Fatal(err)
	}
	if err := export.WriteDEF(&def, f.Grid, res); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string][]byte{"OTA1.spef": spef.Bytes(), "OTA1.def": def.Bytes()} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the flow's uniform route", name)
		}
	}
}
