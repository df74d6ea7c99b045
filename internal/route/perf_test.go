package route

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"analogfold/internal/geom"
	"analogfold/internal/grid"
	"analogfold/internal/guidance"
	"analogfold/internal/netlist"
)

// astarFixture prepares a Router mid-net so astar can be invoked directly
// and repeatedly: per-net step costs are loaded, the tree holds the first
// pin group, and the second pin group is the target set. The full Run
// beforehand warms every growable buffer (open list, seed/path buffers,
// pin-group cache) the way a steady-state negotiation iteration would.
func astarFixture(tb testing.TB) (*Router, int, []geom.Point3) {
	tb.Helper()
	c := netlist.OTA1()
	g := buildGrid(tb, c, 1)
	gd := guidance.Uniform(len(c.Nets))
	r := NewRouter(g, Config{})
	if _, err := r.Run(gd); err != nil {
		tb.Fatalf("warm-up run: %v", err)
	}
	ni := -1
	for i := range c.Nets {
		if len(r.pinGroups(i)) >= 2 {
			ni = i
			break
		}
	}
	if ni < 0 {
		tb.Fatal("no net with two pin groups")
	}
	r.ctx = context.Background()
	ne := nextEpoch(&r.netEpoch, r.treeStamp, r.cellStamp, r.mirrorStamp)
	r.prepNetCosts(ni, gd.PerNet[ni])
	groups := r.pinGroups(ni)
	r.treeCells = r.treeCells[:0]
	for _, cell := range groups[0].cells {
		idx := g.CellIndex(cell)
		if r.treeStamp[idx] != ne {
			r.treeStamp[idx] = ne
			r.treeCells = append(r.treeCells, int32(idx))
		}
	}
	return r, ni, groups[1].cells
}

// TestAstarSteadyStateAllocs pins the per-search allocation count: after
// warm-up, one A* search may allocate only the returned path slice. This is
// the regression guard for the zero-allocation core — any map, boxed-heap or
// closure allocation creeping back into the search shows up here.
func TestAstarSteadyStateAllocs(t *testing.T) {
	r, ni, targets := astarFixture(t)
	if _, err := r.astar(ni, 0, targets, false); err != nil {
		t.Fatalf("warm search: %v", err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := r.astar(ni, 0, targets, false); err != nil {
			t.Fatalf("astar: %v", err)
		}
	})
	if allocs > 1 {
		t.Errorf("astar allocates %.1f objects per steady-state search, want ≤1 (the returned path)", allocs)
	}
}

// TestRouteNegotiationSteadyStateAllocs bounds a full reused-Router
// negotiation run on OTA1. The remaining allocations are the per-net result
// slices the caller keeps (netCells, paths, Result bookkeeping) — roughly a
// handful per net — not the per-expansion churn of the map-based router,
// which allocated hundreds of thousands of objects on this circuit.
func TestRouteNegotiationSteadyStateAllocs(t *testing.T) {
	c := netlist.OTA1()
	g := buildGrid(t, c, 1)
	gd := guidance.Uniform(len(c.Nets))
	r := NewRouter(g, Config{})
	if _, err := r.Run(gd); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := r.Run(gd); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	// ~25 nets × (cells + a few paths + segs) plus Result framing; the exact
	// number varies with topology, so assert a generous ceiling that the old
	// per-search maps (≈480k allocs) could never meet.
	if budget := 40.0 * float64(len(c.Nets)); allocs > budget {
		t.Errorf("negotiation run allocates %.0f objects, want ≤ %.0f", allocs, budget)
	}
}

// TestRouteCtxSteadyStateBytes pins what a production route allocates once
// the router pool is warm: RouteCtx on OTA1 must take its lattice scratch
// from the pool, not allocate it (47 bytes per cell: 7.7 MB on this
// 149,760-cell grid). The bound is the median over 9 calls, so a pool
// emptied by a collection mid-measurement does not fail it.
func TestRouteCtxSteadyStateBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a random quarter of sync.Pool puts")
	}
	c := netlist.OTA1()
	g := buildGrid(t, c, 1)
	gd := guidance.Uniform(len(c.Nets))
	run := func() {
		if _, err := RouteCtx(context.Background(), g, gd, Config{}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var allocated []uint64
	var before, after runtime.MemStats
	for i := 0; i < 9; i++ {
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		allocated = append(allocated, after.TotalAlloc-before.TotalAlloc)
	}
	slices.Sort(allocated)
	if med := allocated[len(allocated)/2]; med >= 1<<20 {
		t.Errorf("steady-state RouteCtx allocates %d bytes (median of 9), want < 1 MB; lattice is %d cells", med, g.NumCells())
	}
}

// TestCellIndexRoundTrip exhausts the full grid bounds in both directions:
// every lattice cell maps to a unique flat index and back, and the router's
// dirDelta offsets agree with coordinate-space neighbor steps.
func TestCellIndexRoundTrip(t *testing.T) {
	g := buildGrid(t, netlist.OTA1(), 1)
	r := NewRouter(g, Config{})
	n := g.NumCells()
	for idx := 0; idx < n; idx++ {
		p := r.cellFromIndex(idx)
		if !g.InBounds(p) {
			t.Fatalf("cellFromIndex(%d) = %v out of bounds", idx, p)
		}
		if back := g.CellIndex(p); back != idx {
			t.Fatalf("CellIndex(cellFromIndex(%d)) = %d", idx, back)
		}
	}
	for z := 0; z < g.NL; z++ {
		for y := 0; y < g.NY; y++ {
			for x := 0; x < g.NX; x++ {
				p := geom.Point3{X: x, Y: y, Z: z}
				if got := r.cellFromIndex(g.CellIndex(p)); got != p {
					t.Fatalf("round-trip %v -> %v", p, got)
				}
			}
		}
	}
	for di, d := range neighborDirs {
		p := geom.Point3{X: g.NX / 2, Y: g.NY / 2, Z: g.NL / 2}
		q := p.Add(d)
		if !g.InBounds(q) {
			continue
		}
		if got, want := g.CellIndex(p)+r.dirDelta[di], g.CellIndex(q); got != want {
			t.Errorf("dirDelta[%d]=%d: index %d, want %d", di, r.dirDelta[di], got, want)
		}
	}
}

// TestPinGroupsDeterministic guards against map-iteration-order creeping
// into pin grouping: rebuilding the groups many times must give the same
// group order and the same cell order within each group, and the cached
// accessor must agree with a fresh build.
func TestPinGroupsDeterministic(t *testing.T) {
	g := buildGrid(t, netlist.OTA3(), 1)
	r := NewRouter(g, Config{})
	for ni := range g.NetAPs {
		ref := buildPinGroups(g, ni)
		for trial := 0; trial < 20; trial++ {
			got := buildPinGroups(g, ni)
			if len(got) != len(ref) {
				t.Fatalf("net %d trial %d: %d groups, want %d", ni, trial, len(got), len(ref))
			}
			for gi := range got {
				if len(got[gi].cells) != len(ref[gi].cells) {
					t.Fatalf("net %d group %d: cell count varies", ni, gi)
				}
				for ci := range got[gi].cells {
					if got[gi].cells[ci] != ref[gi].cells[ci] {
						t.Fatalf("net %d group %d cell %d: %v vs %v — ordering not deterministic",
							ni, gi, ci, got[gi].cells[ci], ref[gi].cells[ci])
					}
				}
			}
		}
		cached := r.pinGroups(ni)
		if len(cached) != len(ref) {
			t.Fatalf("net %d: cached groups disagree with fresh build", ni)
		}
	}
}

// BenchmarkAstarCore measures one steady-state multi-source A* search — the
// innermost routing unit — with allocation reporting.
func BenchmarkAstarCore(b *testing.B) {
	r, ni, targets := astarFixture(b)
	if _, err := r.astar(ni, 0, targets, false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.astar(ni, 0, targets, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteNegotiation measures a full rip-up-and-reroute run through
// RouteCtx, the entry point every production route takes, so -benchmem
// shows what dataset labeling, candidate evaluation and served requests pay
// per route with the router pool warm.
func BenchmarkRouteNegotiation(b *testing.B) {
	c := netlist.OTA1()
	benchRouteCtx(b, buildGrid(b, c, 1), guidance.Uniform(len(c.Nets)))
}

// BenchmarkRouteNegotiationGuided is BenchmarkRouteNegotiation under one
// seeded sampled guidance set: the path dataset labels, the guided Table-2
// pass and served /v1/route requests take, where the per-net multipliers
// shape the A* heuristic.
func BenchmarkRouteNegotiationGuided(b *testing.B) {
	c := netlist.OTA1()
	gd := guidance.Sample(len(c.Nets), rand.New(rand.NewSource(1)), guidance.DefaultCMax)
	benchRouteCtx(b, buildGrid(b, c, 1), gd)
}

func benchRouteCtx(b *testing.B, g *grid.Grid, gd guidance.Set) {
	ctx := context.Background()
	if _, err := RouteCtx(ctx, g, gd, Config{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RouteCtx(ctx, g, gd, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
