package netlist

import (
	"errors"
	"math"
	"testing"

	"analogfold/internal/fault"
)

// fuzzReader decodes the fuzz payload into builder operations: a byte picks
// the op, following bytes pick net/device names and small numeric values.
// The name pools are tiny on purpose — collisions (redeclared classes,
// duplicate symmetry, self-referential pairs) are exactly the interesting
// inputs.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) byte() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *fuzzReader) name(pool []string) string { return pool[int(r.byte())%len(pool)] }

func (r *fuzzReader) small() int { return int(r.byte()) * 100 }

// value decodes a device value in units of scale. Bytes 0-4 give the values
// the builder must refuse (zero, NaN, +Inf, -Inf, negative), every other byte
// a positive multiple of scale; ok reports which.
func (r *fuzzReader) value(scale float64) (v float64, ok bool) {
	switch b := r.byte(); b {
	case 0:
		return 0, false
	case 1:
		return math.NaN(), false
	case 2:
		return math.Inf(1), false
	case 3:
		return math.Inf(-1), false
	case 4:
		return -scale, false
	default:
		return float64(b) * scale, true
	}
}

// FuzzNetlistBuild drives the circuit builder with arbitrary operation
// streams. The contract: Build either returns a circuit that validates, or a
// typed fault.ErrInvalidInput — never a panic, never an untyped error — and
// a stream that passed a zero, negative, NaN or infinite width, bias current,
// capacitance or resistance always gets the error. This is the same surface a
// malformed SPICE deck reaches via export.ReadSpice.
func FuzzNetlistBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	// A plausible little circuit: two MOS, a cap, symmetry declarations.
	f.Add([]byte{
		0, 1, 2, 3, 10, 2, // MOS
		0, 2, 3, 4, 12, 2, // MOS
		2, 1, 2, 8, // Cap
		4, 2, 3, // SymNets
		5, 2, // SelfSym
		6, 1, 2, // SymDevices
	})
	f.Add([]byte{3, 0, 0, 3, 0, 1, 3, 0, 2, 3, 0, 3})

	nets := []string{"vdd", "gnd", "inp", "inn", "out", "b1", ""}
	devs := []string{"M1", "M2", "C1", "R1", ""}

	f.Fuzz(func(t *testing.T, data []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("builder panicked on fuzz input: %v", r)
			}
		}()
		b := NewBuilder("fuzz")
		r := &fuzzReader{data: data}
		bad := false // an invalid device value was passed
		for r.pos < len(r.data) {
			switch r.byte() % 7 {
			case 0:
				typ := PMOS
				if r.byte()%2 == 0 {
					typ = NMOS
				}
				name, d, g, src, w := r.name(devs), r.name(nets), r.name(nets), r.name(nets), r.small()
				id, ok := r.value(1e-6)
				bad = bad || w <= 0 || !ok
				b.MOS(typ, name, d, g, src, w, 40, id, 0.2)
			case 1:
				// Deliberately invalid device type for MOS.
				b.MOS(Cap, r.name(devs), r.name(nets), r.name(nets), r.name(nets),
					r.small(), 40, 1e-5, 0.2)
			case 2:
				name, p, n := r.name(devs), r.name(nets), r.name(nets)
				f, ok := r.value(100e-15)
				bad = bad || !ok
				b.Capacitor(name, p, n, f)
			case 3:
				name, p, n := r.name(devs), r.name(nets), r.name(nets)
				ohms, ok := r.value(100)
				bad = bad || !ok
				b.Resistor(name, p, n, ohms)
			case 4:
				b.SymNets(r.name(nets), r.name(nets))
			case 5:
				b.SelfSym(r.name(nets))
			case 6:
				b.SymDevices(r.name(devs), r.name(devs))
			}
		}
		c, err := b.Build()
		if bad && err == nil {
			t.Fatal("Build accepted a non-finite or non-positive device value")
		}
		if err != nil {
			if !errors.Is(err, fault.ErrInvalidInput) {
				t.Fatalf("Build error is not typed ErrInvalidInput: %v", err)
			}
			var fe *fault.Error
			if !errors.As(err, &fe) {
				t.Fatalf("Build error carries no fault attribution: %v", err)
			}
			return
		}
		// An accepted circuit must be internally consistent.
		if err := c.Validate(); err != nil {
			t.Fatalf("Build accepted a circuit that fails Validate: %v", err)
		}
	})
}
