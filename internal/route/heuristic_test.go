package route

import (
	"math"
	"math/rand"
	"testing"

	"analogfold/internal/geom"
	"analogfold/internal/grid"
	"analogfold/internal/guidance"
	"analogfold/internal/netlist"
	"analogfold/internal/place"
	"analogfold/internal/tech"
)

// checkAxisBounds asserts that the heuristic scales prepNetCosts derived for
// net ni are per-axis lower bounds on every planar step the search may take
// (layers z ≤ maxZ), that each is attained on some open layer, and that the
// bound is never looser than the old single scale min(multX, multY, 1).
func checkAxisBounds(t *testing.T, r *Router, ni int, gv guidance.Vec) {
	t.Helper()
	r.prepNetCosts(ni, gv)
	minX, minY := math.Inf(1), math.Inf(1)
	for z := 0; z <= r.maxZ; z++ {
		if r.hX > r.stepX[z] || r.hY > r.stepY[z] {
			t.Fatalf("net %d guidance %v: hX=%g hY=%g exceed step costs (%g, %g) on layer %d",
				ni, gv, r.hX, r.hY, r.stepX[z], r.stepY[z], z)
		}
		minX, minY = math.Min(minX, r.stepX[z]), math.Min(minY, r.stepY[z])
	}
	if r.hX != minX || r.hY != minY {
		t.Fatalf("net %d guidance %v: hX=%g hY=%g, want the cheapest open steps %g %g",
			ni, gv, r.hX, r.hY, minX, minY)
	}
	if old := math.Min(math.Min(r.stepMult(gv[0]), r.stepMult(gv[1])), 1); r.hX < old || r.hY < old {
		t.Fatalf("net %d guidance %v: hX=%g hY=%g looser than the scalar bound %g", ni, gv, r.hX, r.hY, old)
	}
	if r.hZ > r.stepZ {
		t.Fatalf("net %d guidance %v: z scale %g exceeds the via cost %g", ni, gv, r.hZ, r.stepZ)
	}
}

// flippedSim40 is Sim40 with every layer's preferred direction swapped, so
// its lowest metal is vertical.
func flippedSim40() *tech.Tech {
	tk := tech.Sim40()
	for i := range tk.Layers {
		if tk.Layers[i].Dir == tech.Horizontal {
			tk.Layers[i].Dir = tech.Vertical
		} else {
			tk.Layers[i].Dir = tech.Horizontal
		}
	}
	return tk
}

// TestHeuristicAxisBounds checks the per-axis A* scales against the step-cost
// tables they summarize: under uniform guidance (where they must all be 1, the
// old scale, so uniform routes are unchanged), sampled guidance, guidance
// floored by MinMult, a via cost below the planar scale, and a layer ceiling
// that leaves only a vertical layer open (where every x step is wrong-way and
// hX must carry the penalty).
func TestHeuristicAxisBounds(t *testing.T) {
	c := netlist.OTA1()
	g := buildGrid(t, c, 1)
	r := NewRouter(g, Config{})
	uniform := guidance.Uniform(len(c.Nets))
	for ni := range c.Nets {
		checkAxisBounds(t, r, ni, uniform.PerNet[ni])
		if r.hX != 1 || r.hY != 1 || r.hZ != 1 {
			t.Fatalf("net %d uniform: scales (%g, %g, %g), want all 1", ni, r.hX, r.hY, r.hZ)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		gd := guidance.Sample(len(c.Nets), rng, guidance.DefaultCMax)
		for ni := range c.Nets {
			checkAxisBounds(t, r, ni, gd.PerNet[ni])
		}
	}
	floored := guidance.Vec{0.01, 0.02, 0.03}
	checkAxisBounds(t, r, 0, floored)
	if r.hX != r.cfg.MinMult || r.hY != r.cfg.MinMult {
		t.Fatalf("floored guidance: hX=%g hY=%g, want MinMult %g", r.hX, r.hY, r.cfg.MinMult)
	}

	// A via cheaper than the capped planar scale caps the z term.
	cheapVia := NewRouter(g, Config{ViaCost: 1})
	checkAxisBounds(t, cheapVia, 0, floored)
	if cheapVia.hZ != cheapVia.stepZ {
		t.Fatalf("cheap vias: z scale %g, want the via cost %g", cheapVia.hZ, cheapVia.stepZ)
	}

	p, err := place.Place(c, place.Config{Profile: place.ProfileA, Seed: 1, Iterations: 2000})
	if err != nil {
		t.Fatal(err)
	}
	vg, err := grid.Build(p, flippedSim40())
	if err != nil {
		t.Fatal(err)
	}
	limits := map[netlist.NetType]int{}
	for _, n := range c.Nets {
		limits[n.Type] = 0
	}
	vr := NewRouter(vg, Config{MaxLayerByType: limits})
	for ni := range c.Nets {
		gv := guidance.Vec{0.4, 1.7, 1}
		checkAxisBounds(t, vr, ni, gv)
		if vr.maxZ != 0 || vr.hX != vr.stepMult(gv[0])*vr.cfg.WrongWayCost {
			t.Fatalf("net %d vertical-only: maxZ=%d hX=%g, want 0 and the wrong-way x step %g",
				ni, vr.maxZ, vr.hX, vr.stepMult(gv[0])*vr.cfg.WrongWayCost)
		}
	}
}

// TestGuidedSearchOptimal is the optimality oracle for the per-axis
// heuristic: on OTA1–OTA4 under seeded sampled guidance, every search of a
// net without a symmetric peer must find a path exactly as cheap as a
// zero-heuristic (Dijkstra) search run from the same router state. Nets with
// a peer are skipped: the SymDiscount on the peer's mirror cells can price a
// step below the bound, the one known gap in its admissibility. The test
// runs on one goroutine, so under the race detector it keeps only OTA1.
func TestGuidedSearchOptimal(t *testing.T) {
	circuits := []*netlist.Circuit{netlist.OTA1(), netlist.OTA2(), netlist.OTA3(), netlist.OTA4()}
	if raceEnabled {
		circuits = circuits[:1]
	}
	for i, c := range circuits {
		c, seed := c, int64(100+i)
		t.Run(c.Name, func(t *testing.T) {
			g := buildGrid(t, c, 1)
			gd := guidance.Sample(len(c.Nets), rand.New(rand.NewSource(seed)), guidance.DefaultCMax)
			r := NewRouter(g, Config{})
			checked, popsA, popsD := 0, 0, 0
			r.searchHook = func(ni, iter int, targets []geom.Point3, hard bool, path []geom.Point3) {
				if r.symPeer(ni) >= 0 {
					return
				}
				got := r.dist[g.CellIndex(path[len(path)-1])]
				// Repeat the search (it is deterministic and leaves the router
				// state alone) to count its pops, then run it without a heuristic.
				before := r.ctxPolls
				if _, err := r.astar(ni, iter, targets, hard); err != nil {
					t.Fatalf("net %d: repeated search: %v", ni, err)
				}
				popsA += r.ctxPolls - before
				hX, hY, hZ := r.hX, r.hY, r.hZ
				r.hX, r.hY, r.hZ = 0, 0, 0
				before = r.ctxPolls
				ref, err := r.astar(ni, iter, targets, hard)
				popsD += r.ctxPolls - before
				r.hX, r.hY, r.hZ = hX, hY, hZ
				if err != nil {
					t.Fatalf("net %d: Dijkstra found no path where A* did: %v", ni, err)
				}
				want := r.dist[g.CellIndex(ref[len(ref)-1])]
				if math.Abs(got-want) > 1e-9*math.Max(1, want) {
					t.Errorf("net %s iter %d: A* path cost %.12g, Dijkstra %.12g", c.Nets[ni].Name, iter, got, want)
				}
				checked++
			}
			if _, err := r.Run(gd); err != nil {
				t.Fatal(err)
			}
			if checked == 0 {
				t.Fatal("no peerless search was checked")
			}
			t.Logf("%d searches checked; pops A* %d vs Dijkstra %d", checked, popsA, popsD)
		})
	}
}
