package place

import (
	"testing"

	"analogfold/internal/geom"
	"analogfold/internal/netlist"
)

func mustPlace(t *testing.T, c *netlist.Circuit, cfg Config) *Placement {
	t.Helper()
	p, err := Place(c, cfg)
	if err != nil {
		t.Fatalf("Place(%s): %v", c.Name, err)
	}
	return p
}

func TestPlaceLegal(t *testing.T) {
	for _, c := range netlist.Benchmarks() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			p := mustPlace(t, c, Config{Profile: ProfileA, Seed: 1, Iterations: 3000})
			if ov := p.Overlap(); ov != 0 {
				t.Errorf("overlap = %d", ov)
			}
			for i := range c.Devices {
				r := p.DeviceRect(i)
				if r.Lo.X < 0 || r.Lo.Y < 0 {
					t.Errorf("device %s at negative coords: %v", c.Devices[i].Name, r)
				}
				if !p.Die.Contains(r.Lo) || !p.Die.ContainsClosed(r.Hi) {
					t.Errorf("device %s outside die %v: %v", c.Devices[i].Name, p.Die, r)
				}
			}
		})
	}
}

func TestPlaceSymmetry(t *testing.T) {
	c := netlist.OTA1()
	p := mustPlace(t, c, Config{Profile: ProfileA, Seed: 2, Iterations: 3000})
	for _, pr := range c.SymDevPairs {
		ra := p.DeviceRect(pr[0])
		rb := p.DeviceRect(pr[1])
		if geom.MirrorRectX(ra, p.Axis) != rb {
			t.Errorf("pair %s/%s not mirrored about axis %d: %v vs %v",
				c.Devices[pr[0]].Name, c.Devices[pr[1]].Name, p.Axis, ra, rb)
		}
	}
}

func TestPlaceGridAlignment(t *testing.T) {
	c := netlist.OTA1()
	cfg := Config{Profile: ProfileA, Seed: 3, Iterations: 2000, GridPitch: 140}
	p := mustPlace(t, c, cfg)
	for i := range c.Devices {
		l := p.Loc[i]
		if l.X%140 != 0 || l.Y%140 != 0 {
			t.Errorf("device %s not grid aligned: %v", c.Devices[i].Name, l)
		}
	}
	// Mirrored grid points stay on grid: 2*axis must be a pitch multiple.
	if (2*p.Axis)%140 != 0 {
		t.Errorf("axis %d breaks mirrored grid alignment", p.Axis)
	}
}

func TestPlaceDeterministic(t *testing.T) {
	c := netlist.OTA2()
	cfg := Config{Profile: ProfileB, Seed: 7, Iterations: 1500}
	p1 := mustPlace(t, c, cfg)
	p2 := mustPlace(t, netlist.OTA2(), cfg)
	for i := range p1.Loc {
		if p1.Loc[i] != p2.Loc[i] {
			t.Fatalf("placement not deterministic at device %d: %v vs %v", i, p1.Loc[i], p2.Loc[i])
		}
	}
}

func TestProfilesDiffer(t *testing.T) {
	c := netlist.OTA1()
	pa := mustPlace(t, c, Config{Profile: ProfileA, Seed: 5, Iterations: 2500})
	pb := mustPlace(t, netlist.OTA1(), Config{Profile: ProfileB, Seed: 5, Iterations: 2500})
	same := true
	for i := range pa.Loc {
		if pa.Loc[i] != pb.Loc[i] {
			same = false
			break
		}
	}
	if same {
		t.Errorf("profiles A and B produced identical placements")
	}
}

func TestProfileWeights(t *testing.T) {
	if ProfileB.NetWeight(netlist.NetInput) <= ProfileA.NetWeight(netlist.NetInput) {
		t.Errorf("profile B must upweight inputs")
	}
	if ProfileC.NetWeight(netlist.NetBias) <= 1 {
		t.Errorf("profile C must upweight bias nets")
	}
	if ProfileD.NetWeight(netlist.NetPower) <= 1 {
		t.Errorf("profile D must upweight power")
	}
	if ProfileA.NetWeight(netlist.NetSignal) != 1 {
		t.Errorf("profile A must be uniform")
	}
}

func TestPinRectsAbsolute(t *testing.T) {
	c := netlist.OTA1()
	p := mustPlace(t, c, Config{Profile: ProfileA, Seed: 11, Iterations: 1500})
	for i, d := range c.Devices {
		cell := p.DeviceRect(i)
		for _, term := range d.Terminals {
			rs := p.PinRects(i, term.Name)
			if len(rs) == 0 {
				t.Errorf("device %s terminal %s has no pin rects", d.Name, term.Name)
			}
			for _, r := range rs {
				if !cell.ContainsClosed(r.Lo) || !cell.ContainsClosed(r.Hi) {
					t.Errorf("pin %s.%s %v escapes cell %v", d.Name, term.Name, r, cell)
				}
			}
		}
	}
}

func TestMirroredPinSymmetry(t *testing.T) {
	// Gate pads of a mirrored pair must be mirror images, so symmetric nets
	// can be routed mirrored.
	c := netlist.OTA1()
	p := mustPlace(t, c, Config{Profile: ProfileA, Seed: 13, Iterations: 1500})
	ia := c.DeviceByName("MN1")
	ib := c.DeviceByName("MN2")
	ga := p.PinRects(ia, "G")[0]
	gb := p.PinRects(ib, "G")[0]
	if geom.MirrorRectX(ga, p.Axis) != gb {
		t.Errorf("gate pads not mirrored: %v vs %v (axis %d)", ga, gb, p.Axis)
	}
}

func TestHPWLPositive(t *testing.T) {
	c := netlist.OTA3()
	p := mustPlace(t, c, Config{Profile: ProfileA, Seed: 17, Iterations: 2000})
	if p.HPWL() <= 0 {
		t.Errorf("HPWL = %g", p.HPWL())
	}
}

func TestAnnealImproves(t *testing.T) {
	c := netlist.OTA3()
	quick := mustPlace(t, c, Config{Profile: ProfileA, Seed: 19, Iterations: 50})
	long := mustPlace(t, netlist.OTA3(), Config{Profile: ProfileA, Seed: 19, Iterations: 8000})
	if long.HPWL() > quick.HPWL()*1.5 {
		t.Errorf("longer annealing much worse: %g vs %g", long.HPWL(), quick.HPWL())
	}
}

func TestPlaceLegalAcrossManySeeds(t *testing.T) {
	// Robustness: the constructive legalizer must produce overlap-free,
	// mirror-exact placements for every seed and profile combination.
	profiles := []Profile{ProfileA, ProfileB, ProfileC, ProfileD}
	for seed := int64(100); seed < 112; seed++ {
		c := netlist.OTA3()
		p := mustPlace(t, c, Config{Profile: profiles[seed%4], Seed: seed, Iterations: 800})
		if ov := p.Overlap(); ov != 0 {
			t.Fatalf("seed %d: overlap %d", seed, ov)
		}
		for _, pr := range c.SymDevPairs {
			if geom.MirrorRectX(p.DeviceRect(pr[0]), p.Axis) != p.DeviceRect(pr[1]) {
				t.Fatalf("seed %d: pair %v not mirrored", seed, pr)
			}
		}
	}
}

func TestPlaceRefusesNoIterations(t *testing.T) {
	// The annealing budget has no implicit default: every caller states it
	// (core.Options.PlaceIters for the flow).
	for _, n := range []int{0, -1} {
		if _, err := Place(netlist.OTA1(), Config{Profile: ProfileA, Seed: 1, Iterations: n}); err == nil {
			t.Errorf("Iterations %d: want an error", n)
		}
	}
}
