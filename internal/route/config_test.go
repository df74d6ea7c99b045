package route

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"analogfold/internal/fault"
	"analogfold/internal/geom"
	"analogfold/internal/grid"
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

// sameRouting reports the first way got's routing differs from want's:
// cells, segments, wirelength or vias.
func sameRouting(got, want *Result) string {
	switch {
	case !reflect.DeepEqual(got.NetCells, want.NetCells):
		return "NetCells differ"
	case !reflect.DeepEqual(got.NetSegs, want.NetSegs):
		return "NetSegs differ"
	case got.WirelengthNm != want.WirelengthNm || got.Vias != want.Vias:
		return fmt.Sprintf("(wirelength, vias) = (%d, %d), want (%d, %d)",
			got.WirelengthNm, got.Vias, want.WirelengthNm, want.Vias)
	}
	return ""
}

// TestRouterReuseAcrossRuns runs one Router over three sampled guidance sets
// on OTA1, then rebinds it to a larger OTA3 grid and back to OTA1 (grow, then
// shrink): every run must equal a fresh NewRouter run, cell for cell. Before
// the shrink, an OTA3 run is canceled mid-negotiation, as a request deadline
// would, so the router goes back with a conflict worklist indexing the
// larger lattice.
func TestRouterReuseAcrossRuns(t *testing.T) {
	small, large := netlist.OTA1(), netlist.OTA3()
	gSmall, gLarge := buildGrid(t, small, 54), buildGrid(t, large, 54)
	if gLarge.NumCells() <= gSmall.NumCells() {
		t.Fatalf("OTA3 grid (%d cells) must be larger than OTA1's (%d)", gLarge.NumCells(), gSmall.NumCells())
	}
	rng := rand.New(rand.NewSource(54))
	var gds []guidance.Set
	for i := 0; i < 3; i++ {
		gds = append(gds, guidance.Sample(len(small.Nets), rng, guidance.DefaultCMax))
	}
	type step struct {
		name     string
		g        *grid.Grid
		gd       guidance.Set
		canceled bool // canceled in the second negotiation iteration
	}
	steps := []step{
		{"OTA1 draw 0", gSmall, gds[0], false},
		{"OTA1 draw 1", gSmall, gds[1], false},
		{"OTA1 draw 2", gSmall, gds[2], false},
		{"OTA3 uniform", gLarge, guidance.Uniform(len(large.Nets)), false},
		{"OTA3 uniform, canceled", gLarge, guidance.Uniform(len(large.Nets)), true},
		{"OTA1 draw 0 again", gSmall, gds[0], false},
	}
	var r *Router
	for _, st := range steps {
		if r == nil {
			r = NewRouter(st.g, Config{})
		} else {
			r.bind(st.g, Config{})
		}
		if slices.Contains(r.inConflict[:cap(r.inConflict)], true) || len(r.conflictCells) > 0 {
			t.Fatalf("%s: bind kept conflict state of the previous run", st.name)
		}
		if st.canceled {
			ctx, cancel := context.WithCancel(context.Background())
			r.searchHook = func(_, iter int, _ []geom.Point3, _ bool, _ []geom.Point3) {
				if iter == 1 {
					cancel()
				}
			}
			_, err := r.RunCtx(ctx, st.gd)
			cancel()
			r.searchHook = nil
			if !errors.Is(err, fault.ErrCanceled) {
				t.Fatalf("%s: err %v, want %v", st.name, err, fault.ErrCanceled)
			}
			if len(r.conflictCells) == 0 {
				t.Fatalf("%s: no conflicts outstanding, so the step checks nothing", st.name)
			}
			continue
		}
		got, err := r.Run(st.gd)
		if err != nil {
			t.Fatalf("%s: reused router: %v", st.name, err)
		}
		want, err := NewRouter(st.g, Config{}).Run(st.gd)
		if err != nil {
			t.Fatalf("%s: fresh router: %v", st.name, err)
		}
		if d := sameRouting(got, want); d != "" {
			t.Errorf("%s: reused router differs from fresh: %s", st.name, d)
		}
	}
}

// TestRouterEpochWrap sets both epochs just below math.MaxInt32 on a router
// whose stamp arrays hold stamps of the first 64 epochs everywhere, as a
// router that has climbed through a whole epoch cycle holds stale ones, then
// routes OTA1 across the wrap: every result must equal a fresh router's, and
// neither epoch may reach 0, the value of a never-written stamp.
func TestRouterEpochWrap(t *testing.T) {
	c := netlist.OTA1()
	g := buildGrid(t, c, 56)
	rng := rand.New(rand.NewSource(56))
	r := NewRouter(g, Config{})
	for _, s := range [][]int32{r.stamp, r.closed, r.targetStamp, r.treeStamp, r.cellStamp, r.mirrorStamp} {
		for i := range s {
			s[i] = int32(i%64) + 1
		}
	}
	r.epoch, r.netEpoch = math.MaxInt32-3, math.MaxInt32-3
	for i := 0; i < 3; i++ {
		gd := guidance.Sample(len(c.Nets), rng, guidance.DefaultCMax)
		got, err := r.Run(gd)
		if err != nil {
			t.Fatalf("run %d across the epoch wrap: %v", i, err)
		}
		want, err := NewRouter(g, Config{}).Run(gd)
		if err != nil {
			t.Fatal(err)
		}
		if d := sameRouting(got, want); d != "" {
			t.Errorf("run %d across the epoch wrap differs from a fresh router: %s", i, d)
		}
	}
	if r.epoch <= 0 || r.netEpoch <= 0 {
		t.Errorf("epochs (%d, %d) wrapped to a value a never-written stamp can hold", r.epoch, r.netEpoch)
	}
}

// TestRouteCtxConcurrentSharedGrid routes on one shared grid from 4
// goroutines through the pooled RouteCtx; every result must equal the serial
// one for the same guidance. Run under -race, it also shows that concurrent
// routes only read the grid.
func TestRouteCtxConcurrentSharedGrid(t *testing.T) {
	c := netlist.OTA1()
	g := buildGrid(t, c, 57)
	rng := rand.New(rand.NewSource(57))
	gds := []guidance.Set{guidance.Uniform(len(c.Nets))}
	for i := 0; i < 3; i++ {
		gds = append(gds, guidance.Sample(len(c.Nets), rng, guidance.DefaultCMax))
	}
	serial := make([]*Result, len(gds))
	for i, gd := range gds {
		res, err := NewRouter(g, Config{}).Run(gd)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = res
	}
	const workers = 4
	errs := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range gds {
				i := (w + k) % len(gds) // each worker starts on a different set
				res, err := RouteCtx(context.Background(), g, gds[i], Config{})
				if err != nil {
					errs[w] = err.Error()
					return
				}
				if d := sameRouting(res, serial[i]); d != "" {
					errs[w] = fmt.Sprintf("guidance %d: %s", i, d)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, e := range errs {
		if e != "" {
			t.Errorf("worker %d: %s", w, e)
		}
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
