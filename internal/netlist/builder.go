package netlist

import (
	"math"

	"analogfold/internal/fault"
	"analogfold/internal/geom"
)

// Builder assembles a Circuit incrementally with automatic net interning and
// physical pin-shape synthesis. Construction errors (conflicting net classes,
// missing terminals, undeclared symmetry references) are recorded — the first
// one sticks, later calls become no-ops — and surfaced by Build as a typed
// fault.ErrInvalidInput error. This matters because builders are driven not
// only by the static benchmarks but also by parsed external input (see
// export.ParseSPICE); a malformed SPICE deck must produce an error, not a
// panic. The static benchmarks use MustBuild, which panics on the same
// errors, since there a failure is a programming error in checked-in data.
type Builder struct {
	c   *Circuit
	err error
}

// NewBuilder starts a new circuit.
func NewBuilder(name string) *Builder {
	return &Builder{c: &Circuit{Name: name, netIndex: map[string]int{}}}
}

// fail records the first construction error; subsequent ones are dropped.
func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fault.New(fault.StageNetlist, fault.ErrInvalidInput, format, args...)
	}
}

// Err returns the first recorded construction error, if any.
func (b *Builder) Err() error { return b.err }

// Net interns a net name, creating it with the given type on first use. A
// repeated declaration may upgrade the type from NetSignal to a more specific
// class but never conflicts two specific classes.
func (b *Builder) Net(name string, typ NetType) int {
	if b.err != nil {
		return -1
	}
	if i, ok := b.c.netIndex[name]; ok {
		n := b.c.Nets[i]
		if n.Type == NetSignal && typ != NetSignal {
			n.Type = typ
		} else if typ != NetSignal && n.Type != typ {
			b.fail("netlist builder: net %q redeclared as %v (was %v)", name, typ, n.Type)
			return -1
		}
		return i
	}
	b.c.Nets = append(b.c.Nets, &Net{Name: name, Type: typ})
	b.c.netIndex[name] = len(b.c.Nets) - 1
	return len(b.c.Nets) - 1
}

func (b *Builder) net(name string) int { return b.Net(name, NetSignal) }

// pinPad is the side of the square landing pad synthesized for each
// terminal. It exceeds the 140 nm routing pitch, so every pad covers at least
// one grid track in each direction (Definition 1: each pin has at least one
// access point).
const pinPad = 160 // nm

// footprintQuantum is the grid pitch cell footprints are rounded to, so that
// mirrored placements of equal-size cells keep pin geometry on-grid.
const footprintQuantum = 140

func roundUpQuantum(x int) int {
	r := x % footprintQuantum
	if r == 0 {
		return x
	}
	return x + footprintQuantum - r
}

// mosFootprint sizes a MOS abstract cell from its channel width.
func mosFootprint(w int) (cw, ch int) {
	cw = w/3 + 900
	if cw < 1100 {
		cw = 1100
	}
	if cw > 4200 {
		cw = 4200
	}
	return roundUpQuantum(cw), roundUpQuantum(1400)
}

func (b *Builder) addDevice(d *Device, termNets map[string]string) int {
	if b.err != nil {
		return -1
	}
	var terms []Terminal
	for _, tn := range canonicalTerms(d.Type) {
		netName, ok := termNets[tn]
		if !ok {
			b.fail("netlist builder: device %s missing terminal %s", d.Name, tn)
			return -1
		}
		ni := b.net(netName)
		terms = append(terms, Terminal{Name: tn, Net: ni})
		b.c.Nets[ni].Pins = append(b.c.Nets[ni].Pins, PinRef{Device: len(b.c.Devices), Terminal: tn})
	}
	d.Terminals = terms
	d.PinShapes = synthPinShapes(d)
	b.c.Devices = append(b.c.Devices, d)
	return len(b.c.Devices) - 1
}

func canonicalTerms(t DeviceType) []string {
	switch t {
	case PMOS, NMOS:
		return []string{"D", "G", "S"}
	default:
		return []string{"P", "N"}
	}
}

// synthPinShapes places one landing pad per terminal inside the cell:
// MOS cells put the gate pad at mid-left, drain at top-center and source at
// bottom-center; two-terminal passives put P at the top and N at the bottom.
func synthPinShapes(d *Device) map[string][]geom.Rect {
	pad := func(cx, cy int) geom.Rect {
		return geom.RectWH(cx-pinPad/2, cy-pinPad/2, pinPad, pinPad)
	}
	m := map[string][]geom.Rect{}
	switch d.Type {
	case PMOS, NMOS:
		m["G"] = []geom.Rect{pad(pinPad, d.CellH/2)}
		m["D"] = []geom.Rect{pad(d.CellW/2, d.CellH-pinPad)}
		m["S"] = []geom.Rect{pad(d.CellW/2, pinPad)}
	default:
		m["P"] = []geom.Rect{pad(d.CellW/2, d.CellH-pinPad)}
		m["N"] = []geom.Rect{pad(d.CellW/2, pinPad)}
	}
	return m
}

// positive reports whether v is finite and > 0, recording an error when
// not. Device values also come from parsed decks (export.ReadSpice), and a
// NaN, infinite, zero or negative size, bias current or passive value would
// otherwise validate and only surface as NaN metrics from the MNA solve.
func (b *Builder) positive(dev, what string, v float64) bool {
	if v > 0 && !math.IsInf(v, 1) {
		return true
	}
	b.fail("netlist builder: device %s: %s = %v, want finite and > 0", dev, what, v)
	return false
}

// MOS adds a transistor. d/g/s are net names; w,l in nm; id in amps; vov in
// volts. W, L and ID must be finite and positive, vov finite.
func (b *Builder) MOS(typ DeviceType, name, d, g, s string, w, l int, id, vov float64) int {
	if typ != PMOS && typ != NMOS {
		b.fail("netlist builder: MOS %s requires PMOS or NMOS", name)
		return -1
	}
	if !b.positive(name, "W", float64(w)) || !b.positive(name, "L", float64(l)) || !b.positive(name, "ID", id) {
		return -1
	}
	if math.IsNaN(vov) || math.IsInf(vov, 0) {
		b.fail("netlist builder: device %s: VOV = %v, want finite", name, vov)
		return -1
	}
	cw, ch := mosFootprint(w)
	dev := &Device{
		Name: name, Type: typ,
		W: w, L: l, Fingers: 1 + w/2000,
		ID: id, Vov: vov,
		CellW: cw, CellH: ch,
	}
	return b.addDevice(dev, map[string]string{"D": d, "G": g, "S": s})
}

// Capacitor adds a two-terminal capacitor of value f farads (finite, > 0).
func (b *Builder) Capacitor(name, p, n string, f float64) int {
	if !b.positive(name, "C", f) {
		return -1
	}
	side := roundUpQuantum(2200)
	if f > 0.8e-12 {
		side = roundUpQuantum(3200)
	}
	dev := &Device{Name: name, Type: Cap, CapF: f, CellW: side, CellH: side}
	return b.addDevice(dev, map[string]string{"P": p, "N": n})
}

// Resistor adds a two-terminal resistor of value ohms (finite, > 0).
func (b *Builder) Resistor(name, p, n string, ohms float64) int {
	if !b.positive(name, "R", ohms) {
		return -1
	}
	dev := &Device{Name: name, Type: Res, ResOhm: ohms,
		CellW: roundUpQuantum(1100), CellH: roundUpQuantum(2400)}
	return b.addDevice(dev, map[string]string{"P": p, "N": n})
}

// SymNets declares a symmetric net pair by name.
func (b *Builder) SymNets(a, bn string) {
	ia, ok1 := b.c.netIndex[a]
	ib, ok2 := b.c.netIndex[bn]
	if !ok1 || !ok2 {
		b.fail("netlist builder: symmetric nets %q/%q not declared", a, bn)
		return
	}
	b.c.SymNetPairs = append(b.c.SymNetPairs, [2]int{ia, ib})
}

// SelfSym declares a self-symmetric net by name.
func (b *Builder) SelfSym(name string) {
	i, ok := b.c.netIndex[name]
	if !ok {
		b.fail("netlist builder: self-symmetric net %q not declared", name)
		return
	}
	b.c.SelfSymNets = append(b.c.SelfSymNets, i)
}

// SymDevices declares a mirrored device pair by name.
func (b *Builder) SymDevices(a, bn string) {
	ia := b.c.DeviceByName(a)
	ib := b.c.DeviceByName(bn)
	if ia < 0 || ib < 0 {
		b.fail("netlist builder: symmetric devices %q/%q not declared", a, bn)
		return
	}
	b.c.SymDevPairs = append(b.c.SymDevPairs, [2]int{ia, ib})
}

// Build validates and returns the circuit, or the first construction or
// validation error, typed fault.ErrInvalidInput.
func (b *Builder) Build() (*Circuit, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.c.Validate(); err != nil {
		return nil, fault.Wrap(fault.StageNetlist, fault.ErrInvalidInput, err, "netlist builder")
	}
	return b.c, nil
}

// MustBuild is Build for the checked-in benchmark circuits, where a
// construction error is a programming error in static data: it panics
// instead of returning an error.
func (b *Builder) MustBuild() *Circuit {
	c, err := b.Build()
	if err != nil {
		panic(err.Error())
	}
	return c
}
