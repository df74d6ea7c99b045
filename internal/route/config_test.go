package route

import (
	"testing"

	"analogfold/internal/guidance"
	"analogfold/internal/netlist"
)

func TestViaCostReducesVias(t *testing.T) {
	c := netlist.OTA1()
	g := buildGrid(t, c, 51)
	gd := guidance.Uniform(len(c.Nets))
	cheap, err := Route(g, gd, Config{ViaCost: 1})
	if err != nil {
		t.Fatal(err)
	}
	dear, err := Route(g, gd, Config{ViaCost: 20})
	if err != nil {
		t.Fatal(err)
	}
	if dear.Vias > cheap.Vias {
		t.Errorf("raising via cost increased vias: %d -> %d", cheap.Vias, dear.Vias)
	}
}

func TestWrongWayCostShapesLayers(t *testing.T) {
	// With a very high wrong-way penalty, planar wirelength per layer should
	// respect preferred directions almost exclusively.
	c := netlist.OTA1()
	g := buildGrid(t, c, 52)
	gd := guidance.Uniform(len(c.Nets))
	res, err := Route(g, gd, Config{WrongWayCost: 25})
	if err != nil {
		t.Fatal(err)
	}
	wrong, total := 0, 0
	for _, segs := range res.NetSegs {
		for _, s := range segs {
			if s.IsVia() {
				continue
			}
			l := s.Len()
			total += l
			horizontalLayer := g.Tech.Layers[s.A.Z].Dir.String() == "H"
			if (s.IsHorizontal() && !horizontalLayer) || (s.IsVertical() && horizontalLayer) {
				wrong += l
			}
		}
	}
	if total == 0 {
		t.Fatal("no wire routed")
	}
	if frac := float64(wrong) / float64(total); frac > 0.1 {
		t.Errorf("wrong-way fraction %.2f despite 25x penalty", frac)
	}
}

func TestSymDiscountImprovesMirroring(t *testing.T) {
	c := netlist.OTA1()
	g := buildGrid(t, c, 53)
	gd := guidance.Uniform(len(c.Nets))

	mirrorScore := func(res *Result) float64 {
		inp, _ := c.NetByName("VINP")
		inn, _ := c.NetByName("VINN")
		pSet := map[int]bool{}
		for _, cell := range res.NetCells[inp] {
			pSet[g.CellIndex(cell)] = true
		}
		match := 0
		for _, cell := range res.NetCells[inn] {
			if pSet[g.CellIndex(g.MirrorCell(cell))] {
				match++
			}
		}
		return float64(match) / float64(len(res.NetCells[inn]))
	}

	strong, err := Route(g, gd, Config{SymDiscount: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	weak, err := Route(g, gd, Config{SymDiscount: 0.999})
	if err != nil {
		t.Fatal(err)
	}
	if mirrorScore(strong) < mirrorScore(weak)-0.05 {
		t.Errorf("stronger discount mirrored worse: %.2f vs %.2f",
			mirrorScore(strong), mirrorScore(weak))
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.MaxIters <= 0 || cfg.ViaCost <= 0 || cfg.WrongWayCost <= 1 ||
		cfg.GuidanceWeight <= 0 || cfg.SymDiscount <= 0 || cfg.SymDiscount >= 1 {
		t.Errorf("defaults implausible: %+v", cfg)
	}
	// Explicit values survive.
	cfg2 := Config{ViaCost: 7}.withDefaults()
	if cfg2.ViaCost != 7 {
		t.Errorf("explicit ViaCost overridden")
	}
}

func TestRouterReuseAcrossRuns(t *testing.T) {
	// A Router instance can run multiple times; results must match fresh
	// routers (scratch state is epoch-versioned).
	c := netlist.OTA2()
	g := buildGrid(t, c, 54)
	gd := guidance.Uniform(len(c.Nets))
	r := NewRouter(g, Config{})
	r1, err := r.Run(gd)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Route(g, gd, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.WirelengthNm != fresh.WirelengthNm || r1.Vias != fresh.Vias {
		t.Errorf("reused router differs from fresh: (%d,%d) vs (%d,%d)",
			r1.WirelengthNm, r1.Vias, fresh.WirelengthNm, fresh.Vias)
	}
}

func TestMaxLayerByTypeRespected(t *testing.T) {
	c := netlist.OTA1()
	g := buildGrid(t, c, 55)
	gd := guidance.Uniform(len(c.Nets))
	res, err := Route(g, gd, Config{
		MaxLayerByType: map[netlist.NetType]int{
			netlist.NetInput:  1, // inputs stay on M1/M2
			netlist.NetSignal: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for ni, n := range c.Nets {
		var maxAllowed int
		switch n.Type {
		case netlist.NetInput:
			maxAllowed = 1
		case netlist.NetSignal:
			maxAllowed = 2
		default:
			continue
		}
		for _, cell := range res.NetCells[ni] {
			if cell.Z > maxAllowed {
				t.Errorf("net %s (type %v) uses layer %d > %d", n.Name, n.Type, cell.Z, maxAllowed)
			}
		}
	}
}
