package export

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"analogfold/internal/fault"
	"analogfold/internal/netlist"
)

// fuzzCircuits are OTA1-5, the circuits whose decks and annotations seed the
// decoder fuzz targets.
func fuzzCircuits() []*netlist.Circuit { return append(netlist.Benchmarks(), netlist.OTA5()) }

// FuzzReadSpice drives the SPICE deck decoder with arbitrary bytes, seeded
// with WriteSpice's decks for OTA1-5 and with decks carrying invalid device
// values. The contract: never panic; either return a circuit that validates
// and whose device sizes, bias currents and passive values are finite and
// positive, or a typed fault.ErrInvalidInput.
func FuzzReadSpice(f *testing.F) {
	for _, c := range fuzzCircuits() {
		var buf bytes.Buffer
		if err := WriteSpice(&buf, c); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, deck := range badValueDecks {
		f.Add([]byte(deck))
	}
	f.Fuzz(func(t *testing.T, deck []byte) {
		c, err := ReadSpice(bytes.NewReader(deck), "fuzz")
		if err != nil {
			if !errors.Is(err, fault.ErrInvalidInput) {
				t.Fatalf("error is not typed ErrInvalidInput: %v", err)
			}
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("decoded circuit does not validate: %v", err)
		}
		for _, d := range c.Devices {
			vals := []float64{d.CapF}
			switch d.Type {
			case netlist.PMOS, netlist.NMOS:
				vals = []float64{float64(d.W), float64(d.L), d.ID}
			case netlist.Res:
				vals = []float64{d.ResOhm}
			}
			for _, v := range vals {
				if !(v > 0) || math.IsInf(v, 1) {
					t.Fatalf("decoded device %s carries value %v", d.Name, v)
				}
			}
		}
	})
}

// FuzzReadSPEF drives the SPEF decoder with arbitrary bytes against one of
// OTA1-5 (picked by the first argument), seeded with WriteSPEF's annotations
// of each routed circuit. The contract: never panic; an error is a typed
// fault.ErrInvalidInput.
func FuzzReadSPEF(f *testing.F) {
	cs := fuzzCircuits()
	for i, c := range cs {
		g, _, par := routedDesign(f, c)
		var buf bytes.Buffer
		if err := WriteSPEF(&buf, g.Place.Circuit, par); err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, which uint8, spef []byte) {
		_, err := ReadSPEF(bytes.NewReader(spef), cs[int(which)%len(cs)])
		if err != nil && !errors.Is(err, fault.ErrInvalidInput) {
			t.Fatalf("error is not typed ErrInvalidInput: %v", err)
		}
	})
}
