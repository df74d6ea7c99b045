package route

import (
	"fmt"
	"math"
	"slices"

	"analogfold/internal/fault"
	"analogfold/internal/geom"
	"analogfold/internal/grid"
	"analogfold/internal/guidance"
	"analogfold/internal/tech"
)

// ripUp removes a net's cells from the usage map, keeping the incremental
// conflict accounting in step: a cell dropping from two users to one leaves
// the conflicted count (its worklist entry is reclaimed lazily at the next
// history sweep).
func (r *Router) ripUp(ni int, cells []geom.Point3) {
	for _, c := range cells {
		idx := r.g.CellIndex(c)
		if r.usage[idx] > 0 {
			r.usage[idx]--
			if r.usage[idx] == 1 {
				r.conflictCount--
			}
		}
	}
}

// commit records a net's cells in the usage map; a cell reaching two users
// enters the conflicted count and worklist.
func (r *Router) commit(ni int, cells []geom.Point3) {
	for _, c := range cells {
		idx := r.g.CellIndex(c)
		r.usage[idx]++
		if r.usage[idx] == 2 {
			r.conflictCount++
			if !r.inConflict[idx] {
				r.inConflict[idx] = true
				r.conflictCells = append(r.conflictCells, int32(idx))
			}
		}
	}
}

// countConflictsAndRaiseHistory bumps the history cost of every multi-net
// cell (PathFinder-style negotiation) and returns how many there are. It
// walks only the conflicted-cell worklist maintained by commit/ripUp — not
// the whole lattice — compacting out entries whose conflict has since been
// resolved.
func (r *Router) countConflictsAndRaiseHistory() int {
	kept := r.conflictCells[:0]
	n := 0
	for _, idx := range r.conflictCells {
		if r.usage[idx] > 1 {
			n++
			r.hist[idx] += r.cfg.HistIncr
			kept = append(kept, idx)
		} else {
			r.inConflict[idx] = false
		}
	}
	r.conflictCells = kept
	return n
}

// totalConflicts returns the running multi-use cell count (O(1), maintained
// incrementally by commit/ripUp).
func (r *Router) totalConflicts() int { return r.conflictCount }

func (r *Router) netConflicted(ni int, cells []geom.Point3) bool {
	for _, c := range cells {
		if r.usage[r.g.CellIndex(c)] > 1 {
			return true
		}
	}
	return false
}

// pinGroup is one pin's candidate access-point cells.
type pinGroup struct {
	cells []geom.Point3
}

// pinGroups returns the net's pin groups from the per-Router cache: access
// points never change after grid construction, so the grouping is computed
// once per net and reused across every negotiation iteration and run.
func (r *Router) pinGroups(ni int) []pinGroup {
	if r.pinGroupCache[ni] == nil {
		r.pinGroupCache[ni] = buildPinGroups(r.g, ni)
	}
	return r.pinGroupCache[ni]
}

// buildPinGroups gathers the access-point cells of each pin of the net, in
// first-seen (device, terminal) order over g.NetAPs — a deterministic slice
// walk, never map iteration.
func buildPinGroups(g *grid.Grid, ni int) []pinGroup {
	type key struct {
		dev  int
		term string
	}
	groups := map[key]*pinGroup{}
	var order []key
	for _, id := range g.NetAPs[ni] {
		ap := g.APs[id]
		k := key{ap.Device, ap.Terminal}
		pg, ok := groups[k]
		if !ok {
			pg = &pinGroup{}
			groups[k] = pg
			order = append(order, k)
		}
		pg.cells = append(pg.cells, ap.Cell)
	}
	out := make([]pinGroup, 0, len(order))
	for _, k := range order {
		out = append(out, *groups[k])
	}
	return out
}

// routeNet connects all pins of net ni with soft congestion costs, returning
// the net's cells and the raw paths found.
func (r *Router) routeNet(ni int, gd guidance.Set, iter int, netCells [][]geom.Point3) ([]geom.Point3, [][]geom.Point3, error) {
	return r.routeNetImpl(ni, gd, iter, netCells, false)
}

// routeNetHard is the post-processing variant: foreign cells are hard
// obstacles.
func (r *Router) routeNetHard(ni int, gd guidance.Set, netCells [][]geom.Point3) ([]geom.Point3, [][]geom.Point3, error) {
	return r.routeNetImpl(ni, gd, r.cfg.MaxIters, netCells, true)
}

// prepNetCosts fills the per-(direction, layer) step-cost tables for net ni,
// hoisting the guidance multipliers, preferred-direction penalty and layer
// ceiling out of the A* neighbor loop. Called once per routeNetImpl; the
// products are formed in the same order as the old inline switch so the
// floating-point results are bit-identical.
func (r *Router) prepNetCosts(ni int, gv guidance.Vec) {
	g := r.g
	maxZ := g.NL - 1
	if r.cfg.MaxLayerByType != nil {
		if mz, ok := r.cfg.MaxLayerByType[g.Place.Circuit.Nets[ni].Type]; ok && mz < maxZ {
			maxZ = mz
		}
	}
	multX := r.stepMult(gv[0])
	multY := r.stepMult(gv[1])
	multZ := r.stepMult(gv[2])
	for z := 0; z < g.NL; z++ {
		sx, sy := multX, multY
		if g.Tech.Layers[z].Dir == tech.Vertical {
			sx *= r.cfg.WrongWayCost
		}
		if g.Tech.Layers[z].Dir == tech.Horizontal {
			sy *= r.cfg.WrongWayCost
		}
		r.stepX[z], r.stepY[z] = sx, sy
	}
	r.stepZ = r.cfg.ViaCost * multZ
	r.maxZ = maxZ
	// Per-axis heuristic scales: the cheapest step the search can take along
	// each axis. hX (resp. hY) is the cheapest x (y) step on any layer the
	// net may enter, and every layer hop costs at least the via step stepZ,
	// so hX·dx + hY·dy + hZ·dz never exceeds the cost of reaching the target
	// box.
	r.hX, r.hY = math.Inf(1), math.Inf(1)
	for z := 0; z <= maxZ; z++ {
		r.hX = minF(r.hX, r.stepX[z])
		r.hY = minF(r.hY, r.stepY[z])
	}
	r.hZ = r.stepZ
}

// routeNetImpl routes one net. It requires the net to be ripped up first
// (RunCtx guarantees this), which is what lets the search read r.usage
// directly as the foreign-use count.
func (r *Router) routeNetImpl(ni int, gd guidance.Set, iter int, netCells [][]geom.Point3, hard bool) ([]geom.Point3, [][]geom.Point3, error) {
	g := r.g
	groups := r.pinGroups(ni)
	if len(groups) == 0 {
		return nil, nil, fmt.Errorf("route: net %s has no pins", g.Place.Circuit.Nets[ni].Name)
	}

	ne := nextEpoch(&r.netEpoch, r.treeStamp, r.cellStamp, r.mirrorStamp)
	r.prepNetCosts(ni, gd.PerNet[ni])

	// Mirror cells of the already-routed symmetric peer get a discount so the
	// pair converges to (near-)mirrored topologies.
	if peer := r.symPeer(ni); peer >= 0 && len(netCells[peer]) > 0 {
		for _, c := range netCells[peer] {
			m := g.MirrorCell(c)
			if g.InBounds(m) {
				r.mirrorStamp[g.CellIndex(m)] = ne
			}
		}
	}

	// The net's cell set starts as every AP cell of the net (pin pads are net
	// metal regardless of the wires chosen); the tree as the first group's
	// cells. Both are epoch-stamped lattice arrays plus index lists, replacing
	// the per-call cellSet/tree maps.
	r.cellIdx = r.cellIdx[:0]
	for _, pg := range groups {
		for _, c := range pg.cells {
			idx := g.CellIndex(c)
			if r.cellStamp[idx] != ne {
				r.cellStamp[idx] = ne
				r.cellIdx = append(r.cellIdx, int32(idx))
			}
		}
	}
	r.treeCells = r.treeCells[:0]
	for _, c := range groups[0].cells {
		idx := g.CellIndex(c)
		if r.treeStamp[idx] != ne {
			r.treeStamp[idx] = ne
			r.treeCells = append(r.treeCells, int32(idx))
		}
	}

	// Connect nearest groups first. Stable insertion sort on the precomputed
	// group distances reproduces the previous sort.SliceStable order without
	// its reflection allocations.
	r.remaining = r.remaining[:0]
	for _, pg := range groups[1:] {
		r.remaining = append(r.remaining, remGroup{
			cells: pg.cells, dist: groupDist(groups[0].cells, pg.cells),
		})
	}
	for i := 1; i < len(r.remaining); i++ {
		for j := i; j > 0 && r.remaining[j].dist < r.remaining[j-1].dist; j-- {
			r.remaining[j], r.remaining[j-1] = r.remaining[j-1], r.remaining[j]
		}
	}

	var paths [][]geom.Point3
	for _, rg := range r.remaining {
		// Skip if this group is already touching the tree.
		touched := false
		for _, c := range rg.cells {
			if r.treeStamp[g.CellIndex(c)] == ne {
				touched = true
				break
			}
		}
		if touched {
			continue
		}
		path, err := r.astar(ni, iter, rg.cells, hard)
		if err != nil {
			return nil, nil, fmt.Errorf("route: net %s: %w", g.Place.Circuit.Nets[ni].Name, err)
		}
		if r.searchHook != nil {
			r.searchHook(ni, iter, rg.cells, hard, path)
		}
		paths = append(paths, path)
		for _, c := range path {
			idx := g.CellIndex(c)
			if r.treeStamp[idx] != ne {
				r.treeStamp[idx] = ne
				r.treeCells = append(r.treeCells, int32(idx))
			}
			if r.cellStamp[idx] != ne {
				r.cellStamp[idx] = ne
				r.cellIdx = append(r.cellIdx, int32(idx))
			}
		}
	}

	// Emit cells in ascending index order, matching the order the map-based
	// implementation sorted into.
	slices.Sort(r.cellIdx)
	cells := make([]geom.Point3, len(r.cellIdx))
	for i, idx := range r.cellIdx {
		cells[i] = r.cellFromIndex(int(idx))
	}
	return cells, paths, nil
}

// remGroup is a pin group queued for connection, with its distance to the
// seed group.
type remGroup struct {
	cells []geom.Point3
	dist  int
}

func groupDist(a, b []geom.Point3) int {
	best := math.MaxInt32
	for _, p := range a {
		for _, q := range b {
			if d := p.ManhattanDist(q); d < best {
				best = d
			}
		}
	}
	return best
}

// stepMult converts a guidance element into a step-cost multiplier, blended
// by GuidanceWeight and floored by MinMult.
func (r *Router) stepMult(c float64) float64 {
	m := 1 + r.cfg.GuidanceWeight*(c-1)
	if m < r.cfg.MinMult {
		m = r.cfg.MinMult
	}
	return m
}

// astar searches from the tree (multi-source) to any target cell. In the
// steady state it performs no heap allocations: the open list, scratch
// stamps and path buffer live on the Router and are reused across searches;
// only the returned path is freshly allocated (it outlives the search).
func (r *Router) astar(ni int, iter int, targets []geom.Point3, hard bool) ([]geom.Point3, error) {
	g := r.g
	ep := nextEpoch(&r.epoch, r.stamp, r.closed, r.targetStamp)
	ne := r.netEpoch
	maxZ := r.maxZ

	// Heuristic: per-axis scaled distance to the targets' bounding box. Every
	// x step costs at least hX, every y step at least hY and every layer hop
	// at least hZ (congestion and history only add), so the bound is a lower
	// bound on the remaining path cost — except on the symmetric peer's
	// mirror cells, whose SymDiscount can take a step below it; there the
	// search may settle for a slightly costlier path.
	loX, loY, loZ := math.MaxInt32, math.MaxInt32, math.MaxInt32
	hiX, hiY, hiZ := math.MinInt32, math.MinInt32, math.MinInt32
	for _, t := range targets {
		r.targetStamp[g.CellIndex(t)] = ep
		loX, hiX = minI(loX, t.X), maxI(hiX, t.X)
		loY, hiY = minI(loY, t.Y), maxI(hiY, t.Y)
		loZ, hiZ = minI(loZ, t.Z), maxI(hiZ, t.Z)
	}
	hX, hY, hZ := r.hX, r.hY, r.hZ
	h := func(p geom.Point3) float64 {
		dx := maxI(0, maxI(loX-p.X, p.X-hiX))
		dy := maxI(0, maxI(loY-p.Y, p.Y-hiY))
		dz := maxI(0, maxI(loZ-p.Z, p.Z-hiZ))
		return hX*float64(dx) + hY*float64(dy) + hZ*float64(dz)
	}

	// Seed the open list in deterministic ascending-index order (the same
	// order the map-keyed implementation sorted its seeds into).
	r.seedBuf = append(r.seedBuf[:0], r.treeCells...)
	slices.Sort(r.seedBuf)
	r.open.reset()
	for _, idx32 := range r.seedBuf {
		idx := int(idx32)
		r.dist[idx] = 0
		r.parent[idx] = -1
		r.stamp[idx] = ep
		r.open.push(idx32, h(r.cellFromIndex(idx)))
	}

	var found int32 = -1
	for r.open.len() > 0 {
		// Poll the run context every 1024 expansions so a deadline interrupts
		// even one pathological search, not just the gaps between nets.
		if r.ctxPolls++; r.ctxPolls&1023 == 0 && r.ctx != nil {
			if err := r.ctx.Err(); err != nil {
				return nil, fault.FromContext(fault.StageRouting, err).WithNet(ni)
			}
		}
		cell32, _ := r.open.pop()
		idx := int(cell32)
		if r.closed[idx] == ep {
			continue // already expanded this search
		}
		r.closed[idx] = ep
		cur := r.cellFromIndex(idx)
		if r.targetStamp[idx] == ep {
			found = cell32
			break
		}
		for di, d := range neighborDirs {
			nxt := cur.Add(d)
			if !g.InBounds(nxt) {
				continue
			}
			if nxt.Z > maxZ {
				continue
			}
			nIdx := idx + r.dirDelta[di]
			if g.BlockedAt(nIdx) {
				continue
			}
			if o := g.OwnerAt(nIdx); o >= 0 && o != ni {
				continue // foreign pin pad: hard obstacle
			}
			// Step cost from the per-net (direction, layer) tables.
			var cost float64
			switch {
			case di >= 4:
				cost = r.stepZ
			case di < 2:
				cost = r.stepX[nxt.Z]
			default:
				cost = r.stepY[nxt.Z]
			}
			if r.mirrorStamp[nIdx] == ne {
				cost *= r.cfg.SymDiscount
			}
			// Congestion: the net itself is ripped up during its own search,
			// so usage is exactly the foreign-use count.
			if fu := r.usage[nIdx]; fu > 0 {
				if hard {
					continue
				}
				cost += r.cfg.PresentFactor * float64(iter+1) * float64(fu)
			}
			cost += r.hist[nIdx]

			nd := r.dist[idx] + cost
			if r.stamp[nIdx] == ep && nd >= r.dist[nIdx] {
				continue
			}
			r.dist[nIdx] = nd
			r.parent[nIdx] = cell32
			r.stamp[nIdx] = ep
			r.open.push(int32(nIdx), nd+h(nxt))
		}
	}
	if found < 0 {
		return nil, fmt.Errorf("no path to target (hard=%v)", hard)
	}
	// Reconstruct seed→target; only this result slice is allocated.
	r.pathBuf = r.pathBuf[:0]
	for at := found; at >= 0; at = r.parent[at] {
		r.pathBuf = append(r.pathBuf, at)
		if r.parent[at] < 0 {
			break
		}
	}
	path := make([]geom.Point3, len(r.pathBuf))
	for i := range path {
		path[i] = r.cellFromIndex(int(r.pathBuf[len(r.pathBuf)-1-i]))
	}
	return path, nil
}

var neighborDirs = []geom.Point3{
	{X: 1}, {X: -1}, {Y: 1}, {Y: -1}, {Z: 1}, {Z: -1},
}

func (r *Router) cellFromIndex(idx int) geom.Point3 {
	nx, ny := r.g.NX, r.g.NY
	z := idx / (nx * ny)
	rem := idx % (nx * ny)
	return geom.Point3{X: rem % nx, Y: rem / nx, Z: z}
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
