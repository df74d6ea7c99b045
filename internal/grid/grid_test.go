package grid

import (
	"math"
	"testing"

	"analogfold/internal/geom"
	"analogfold/internal/netlist"
	"analogfold/internal/place"
	"analogfold/internal/tech"
)

func buildGrid(t *testing.T, c *netlist.Circuit, seed int64) *Grid {
	t.Helper()
	p, err := place.Place(c, place.Config{Profile: place.ProfileA, Seed: seed, Iterations: 2000})
	if err != nil {
		t.Fatalf("place: %v", err)
	}
	g, err := Build(p, tech.Sim40())
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	return g
}

func TestBuildAllBenchmarks(t *testing.T) {
	for _, c := range netlist.Benchmarks() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			g := buildGrid(t, c, 1)
			if g.NX < 10 || g.NY < 10 {
				t.Errorf("grid too small: %dx%d", g.NX, g.NY)
			}
			if g.NL != 6 {
				t.Errorf("NL = %d", g.NL)
			}
		})
	}
}

func TestEveryPinHasAccessPoint(t *testing.T) {
	g := buildGrid(t, netlist.OTA1(), 2)
	c := g.Place.Circuit
	for ni, n := range c.Nets {
		if len(g.NetAPs[ni]) == 0 {
			t.Errorf("net %s has no access points", n.Name)
		}
		// Each pin of the net must contribute at least one AP.
		for _, pin := range n.Pins {
			found := false
			for _, id := range g.NetAPs[ni] {
				ap := g.APs[id]
				if ap.Device == pin.Device && ap.Terminal == pin.Terminal {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("pin %s.%s of net %s has no AP",
					c.Devices[pin.Device].Name, pin.Terminal, n.Name)
			}
		}
	}
}

func TestAccessPointsUnblocked(t *testing.T) {
	g := buildGrid(t, netlist.OTA3(), 3)
	for _, ap := range g.APs {
		if g.Blocked(ap.Cell) {
			t.Errorf("AP %v is blocked", ap.Cell)
		}
		if g.Owner(ap.Cell) != ap.Net {
			t.Errorf("AP %v owner = %d, want %d", ap.Cell, g.Owner(ap.Cell), ap.Net)
		}
		if ap.Cell.Z != 0 {
			t.Errorf("AP %v not on M1", ap.Cell)
		}
	}
}

func TestDeviceInteriorBlockedOnM1(t *testing.T) {
	g := buildGrid(t, netlist.OTA1(), 4)
	p := g.Place
	// The center cell of every device must be blocked on M1 unless it is a
	// pin access point, and never blocked above M1.
	for di := range p.Circuit.Devices {
		ctr := p.DeviceRect(di).Center()
		cell := geom.Point3{X: ctr.X / g.Pitch, Y: ctr.Y / g.Pitch, Z: 0}
		if !g.InBounds(cell) {
			t.Fatalf("device %d center cell out of bounds", di)
		}
		if !g.Blocked(cell) && g.Owner(cell) < 0 {
			t.Errorf("device %d center %v unexpectedly routable on M1", di, cell)
		}
		up := geom.Point3{X: cell.X, Y: cell.Y, Z: 1}
		if g.Blocked(up) {
			t.Errorf("M2 over device %d blocked", di)
		}
	}
}

func TestOwnershipExclusive(t *testing.T) {
	g := buildGrid(t, netlist.OTA4(), 5)
	seen := map[geom.Point3]int{}
	for _, ap := range g.APs {
		if prev, ok := seen[ap.Cell]; ok && prev != ap.Net {
			t.Errorf("cell %v owned by nets %d and %d", ap.Cell, prev, ap.Net)
		}
		seen[ap.Cell] = ap.Net
	}
}

func TestMirrorCell(t *testing.T) {
	g := buildGrid(t, netlist.OTA1(), 6)
	// Mirror must be an involution and preserve Y and Z.
	for _, ap := range g.APs {
		m := g.MirrorCell(ap.Cell)
		if m.Y != ap.Cell.Y || m.Z != ap.Cell.Z {
			t.Errorf("mirror changed Y/Z: %v -> %v", ap.Cell, m)
		}
		if g.MirrorCell(m) != ap.Cell {
			t.Errorf("mirror not involutive: %v -> %v -> %v", ap.Cell, m, g.MirrorCell(m))
		}
	}
}

func TestMirrorMapsSymmetricDevicePins(t *testing.T) {
	// Pins on mirrored device pairs must have mirrored access points. (Whole
	// symmetric *nets* need not mirror exactly: they may also touch unpaired
	// devices, which is why the router treats mirroring as partial.)
	g := buildGrid(t, netlist.OTA1(), 7)
	c := g.Place.Circuit
	paired := map[int]int{}
	for _, pr := range c.SymDevPairs {
		paired[pr[0]] = pr[1]
		paired[pr[1]] = pr[0]
	}
	cells := map[geom.Point3]bool{}
	for _, ap := range g.APs {
		if _, ok := paired[ap.Device]; ok {
			cells[ap.Cell] = true
		}
	}
	for cell := range cells {
		if !cells[g.MirrorCell(cell)] {
			t.Errorf("paired-device AP %v has no mirrored AP at %v", cell, g.MirrorCell(cell))
		}
	}
}

func TestCellPosRoundTrip(t *testing.T) {
	g := buildGrid(t, netlist.OTA2(), 8)
	p := geom.Point3{X: 5, Y: 9, Z: 2}
	pos := g.CellPos(p)
	if pos.X != 5*g.Pitch || pos.Y != 9*g.Pitch {
		t.Errorf("CellPos = %v", pos)
	}
}

func TestAPByCell(t *testing.T) {
	g := buildGrid(t, netlist.OTA1(), 9)
	ap := g.APs[0]
	got, ok := g.APByCell(ap.Cell)
	if !ok || got.ID != ap.ID {
		t.Errorf("APByCell(%v) = %+v, %v", ap.Cell, got, ok)
	}
	if _, ok := g.APByCell(geom.Point3{X: 0, Y: 0, Z: 3}); ok {
		t.Errorf("non-M1 cell cannot be an AP")
	}
}

func TestInBounds(t *testing.T) {
	g := buildGrid(t, netlist.OTA1(), 10)
	if g.InBounds(geom.Point3{X: -1, Y: 0, Z: 0}) {
		t.Errorf("negative X in bounds")
	}
	if g.InBounds(geom.Point3{X: 0, Y: 0, Z: g.NL}) {
		t.Errorf("layer overflow in bounds")
	}
	if !g.InBounds(geom.Point3{X: g.NX - 1, Y: g.NY - 1, Z: g.NL - 1}) {
		t.Errorf("max corner out of bounds")
	}
}

func TestBuildOnCoarserTechnology(t *testing.T) {
	// Sim65's 200 nm pitch exceeds the 160 nm pin pads; the off-grid pin
	// snapping must keep every pin reachable.
	c := netlist.OTA1()
	p, err := place.Place(c, place.Config{
		Profile: place.ProfileA, Seed: 21, Iterations: 1500, GridPitch: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(p, tech.Sim65())
	if err != nil {
		t.Fatal(err)
	}
	for ni, n := range c.Nets {
		if len(g.NetAPs[ni]) == 0 {
			t.Errorf("net %s lost all access points on sim65", n.Name)
		}
	}
}

// TestBuildNetLimit pins the net count a grid cell's int16 word can name:
// 32768 nets build, one more is an error rather than a wrapped owner.
func TestBuildNetLimit(t *testing.T) {
	tk := tech.Sim40()
	build := func(nets int) error {
		c := &netlist.Circuit{Name: "wide", Nets: make([]*netlist.Net, nets)}
		for i := range c.Nets {
			c.Nets[i] = &netlist.Net{}
		}
		side := 4 * tk.GridPitch
		p := &place.Placement{Circuit: c, Die: geom.Rect{Hi: geom.Point{X: side, Y: side}}}
		_, err := Build(p, tk)
		return err
	}
	if err := build(math.MaxInt16 + 1); err != nil {
		t.Fatalf("%d nets: %v", math.MaxInt16+1, err)
	}
	if err := build(math.MaxInt16 + 2); err == nil {
		t.Fatalf("%d nets built without error", math.MaxInt16+2)
	}
}
