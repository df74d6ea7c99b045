package export

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"analogfold/internal/circuit"
	"analogfold/internal/extract"
	"analogfold/internal/fault"
	"analogfold/internal/grid"
	"analogfold/internal/guidance"
	"analogfold/internal/netlist"
	"analogfold/internal/place"
	"analogfold/internal/route"
	"analogfold/internal/tech"
)

func TestSpiceRoundTripAllBenchmarks(t *testing.T) {
	for _, c := range netlist.Benchmarks() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteSpice(&buf, c); err != nil {
				t.Fatal(err)
			}
			back, err := ReadSpice(&buf, c.Name)
			if err != nil {
				t.Fatal(err)
			}
			if len(back.Devices) != len(c.Devices) || len(back.Nets) != len(c.Nets) {
				t.Fatalf("round trip: %d/%d devices, %d/%d nets",
					len(back.Devices), len(c.Devices), len(back.Nets), len(c.Nets))
			}
			for i, d := range c.Devices {
				bd := back.Devices[i]
				if bd.Name != d.Name || bd.Type != d.Type || bd.W != d.W || bd.L != d.L {
					t.Errorf("device %s mismatched after round trip: %+v", d.Name, bd)
				}
				if math.Abs(bd.ID-d.ID) > 1e-12 || math.Abs(bd.Vov-d.Vov) > 1e-9 {
					t.Errorf("device %s lost bias info: ID %g vs %g", d.Name, bd.ID, d.ID)
				}
			}
			if len(back.SymNetPairs) != len(c.SymNetPairs) || len(back.SymDevPairs) != len(c.SymDevPairs) {
				t.Errorf("symmetry constraints lost in round trip")
			}
			// Ports survive by name (net indices may be renumbered).
			if back.Nets[back.InP].Name != c.Nets[c.InP].Name ||
				back.Nets[back.OutP].Name != c.Nets[c.OutP].Name ||
				(c.OutN >= 0) != (back.OutN >= 0) {
				t.Errorf("ports lost in round trip")
			}
			if err := back.Validate(); err != nil {
				t.Errorf("round-tripped circuit invalid: %v", err)
			}
		})
	}
}

// TestSpiceRoundTripSimulation is the strongest equivalence check: the
// round-tripped circuit must simulate to identical schematic metrics.
func TestSpiceRoundTripSimulation(t *testing.T) {
	c := netlist.OTA1()
	var buf bytes.Buffer
	if err := WriteSpice(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSpice(&buf, c.Name)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := circuit.Evaluate(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := circuit.Evaluate(back, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m1.GainDB-m2.GainDB) > 1e-6 || math.Abs(m1.BandwidthMHz-m2.BandwidthMHz) > 1e-3 {
		t.Errorf("round-tripped circuit simulates differently: %+v vs %+v", m1, m2)
	}
}

// badValueDecks are decks that parse but carry a device value the builder
// must refuse: NaN, infinite, zero or negative.
var badValueDecks = []string{
	"C1 A B NaN\n",
	"C1 A B +Inf\n",
	"C1 A B 0\n",
	"R1 A B -1\n",
	"R1 A B Inf\n",
	"M1 D G S VSS nch W=-100n L=40n\n",
	"M1 D G S VSS nch W=100n L=0n\n",
	"M1 D G S VSS nch W=100n L=40n $ ID=NaN VOV=0.1\n",
	"M1 D G S VSS nch W=100n L=40n $ ID=-1e-5 VOV=0.1\n",
	"M1 D G S VSS nch W=100n L=40n $ ID=1e-5 VOV=Inf\n",
}

func TestReadSpiceRejectsMalformed(t *testing.T) {
	cases := append([]string{
		"Q1 a b c\n",                // unknown card
		"M1 d g s b nch W=100n\n",   // missing L
		"C1 a\n",                    // missing value
		"R1 a b notanumber\n",       // bad value
		"M1 d g s b nch W=x L=4n\n", // bad width
		"M1 d g s b nch W=100n L=40n $ ID=banana VOV=0.1\n", // bad bias
	}, badValueDecks...)
	for i, src := range cases {
		if _, err := ReadSpice(strings.NewReader(src), "bad"); !errors.Is(err, fault.ErrInvalidInput) {
			t.Errorf("case %d: malformed deck gave %v, want fault.ErrInvalidInput", i, err)
		}
	}
}

func routedDesign(tb testing.TB, c *netlist.Circuit) (*grid.Grid, *route.Result, *extract.Parasitics) {
	tb.Helper()
	p, err := place.Place(c, place.Config{Profile: place.ProfileA, Seed: 1, Iterations: 1500})
	if err != nil {
		tb.Fatal(err)
	}
	g, err := grid.Build(p, tech.Sim40())
	if err != nil {
		tb.Fatal(err)
	}
	res, err := route.Route(g, guidance.Uniform(len(c.Nets)), route.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	return g, res, extract.Extract(g, res)
}

func TestSPEFRoundTrip(t *testing.T) {
	g, _, par := routedDesign(t, netlist.OTA1())
	c := g.Place.Circuit
	var buf bytes.Buffer
	if err := WriteSPEF(&buf, c, par); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSPEF(&buf, c)
	if err != nil {
		t.Fatal(err)
	}
	for ni := range c.Nets {
		if math.Abs(back.Net[ni].R-par.Net[ni].R) > 1e-6*(1+par.Net[ni].R) {
			t.Errorf("net %d R: %g vs %g", ni, back.Net[ni].R, par.Net[ni].R)
		}
		if rel := math.Abs(back.Net[ni].C-par.Net[ni].C) / (1e-20 + par.Net[ni].C); rel > 1e-6 {
			t.Errorf("net %d C differs by %g", ni, rel)
		}
	}
	if len(back.Coupling) != len(par.Coupling) {
		t.Fatalf("coupling count %d vs %d", len(back.Coupling), len(par.Coupling))
	}
	for k, v := range par.Coupling {
		if rel := math.Abs(back.Coupling[k]-v) / v; rel > 1e-6 {
			t.Errorf("coupling %v differs by %g", k, rel)
		}
	}
}

// TestSPEFRoundTripSimulation: the re-read parasitics must produce the same
// post-layout metrics (to write-precision).
func TestSPEFRoundTripSimulation(t *testing.T) {
	g, _, par := routedDesign(t, netlist.OTA1())
	c := g.Place.Circuit
	var buf bytes.Buffer
	if err := WriteSPEF(&buf, c, par); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSPEF(&buf, c)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := circuit.Evaluate(c, par)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := circuit.Evaluate(c, back)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m1.OffsetUV-m2.OffsetUV) > 1e-3*(1+m1.OffsetUV) {
		t.Errorf("offset after SPEF round trip: %g vs %g", m2.OffsetUV, m1.OffsetUV)
	}
	if math.Abs(m1.BandwidthMHz-m2.BandwidthMHz) > 1e-3*(1+m1.BandwidthMHz) {
		t.Errorf("bandwidth after SPEF round trip: %g vs %g", m2.BandwidthMHz, m1.BandwidthMHz)
	}
}

func TestReadSPEFRejectsMalformed(t *testing.T) {
	c := netlist.OTA1()
	cases := []string{
		"*D_NET nosuchnet 1e-15\n",
		"*D_NET VOUT 1e-15\n*CAP\n1 VOUT:gnd\n",
		"1 VOUT:gnd 1e-15\n",                              // value outside section
		"*D_NET VOUT 1e-15\n1 VOUT:gnd 1e-15\n",           // no CAP/RES header
		"*D_NET VOUT 1e-15\n*CAP\n1 VOUT:gnd NaN\n",       // non-finite cap
		"*D_NET VOUT 1e-15\n*RES\n1 VOUT:1 VOUT:2 -5\n",   // negative res
		"*D_NET VOUT 1e-15\n*RES\n1 VOUT:1 VOUT:2 +Inf\n", // infinite res
	}
	for i, src := range cases {
		if _, err := ReadSPEF(strings.NewReader(src), c); !errors.Is(err, fault.ErrInvalidInput) {
			t.Errorf("case %d: malformed SPEF gave %v, want fault.ErrInvalidInput", i, err)
		}
	}
}

func TestWriteDEF(t *testing.T) {
	g, res, _ := routedDesign(t, netlist.OTA1())
	var buf bytes.Buffer
	if err := WriteDEF(&buf, g, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"DESIGN OTA1", "DIEAREA", "COMPONENTS 16", "END COMPONENTS",
		"PINS", "NETS", "ROUTED", "END DESIGN", "MN1", "VOUT"} {
		if !strings.Contains(out, frag) {
			t.Errorf("DEF missing %q", frag)
		}
	}
	// Placement-only DEF has no NETS section.
	var buf2 bytes.Buffer
	if err := WriteDEF(&buf2, g, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf2.String(), "END NETS") {
		t.Errorf("placement-only DEF must omit NETS")
	}
}

func TestDEFDeterministic(t *testing.T) {
	g, res, _ := routedDesign(t, netlist.OTA1())
	var a, b bytes.Buffer
	if err := WriteDEF(&a, g, res); err != nil {
		t.Fatal(err)
	}
	if err := WriteDEF(&b, g, res); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("DEF output not deterministic")
	}
}
