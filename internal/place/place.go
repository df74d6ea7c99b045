// Package place implements the analog placement substrate: a simulated-
// annealing placer with symmetry-pair mirroring about a vertical axis and
// per-net-type weight profiles. The paper generates several placements per
// benchmark (suffixes A/B/C/D, "placements of different net weights") with
// the default MAGICAL placer; this package plays that role.
package place

import (
	"fmt"
	"math"
	"math/rand"

	"analogfold/internal/geom"
	"analogfold/internal/netlist"
)

// Profile selects the net-weight preference used by the annealer, matching
// the paper's placement suffixes.
type Profile string

// The four placement profiles of Table 2.
const (
	ProfileA Profile = "A" // uniform weights
	ProfileB Profile = "B" // favor short input/output nets
	ProfileC Profile = "C" // favor tight bias distribution
	ProfileD Profile = "D" // favor compact power routing
)

// NetWeight returns the HPWL weight the profile assigns to a net type.
func (p Profile) NetWeight(t netlist.NetType) float64 {
	switch p {
	case ProfileB:
		switch t {
		case netlist.NetInput, netlist.NetOutput:
			return 5
		case netlist.NetSignal:
			return 2
		}
		return 1
	case ProfileC:
		switch t {
		case netlist.NetBias:
			return 5
		case netlist.NetSignal:
			return 2.5
		}
		return 1
	case ProfileD:
		switch t {
		case netlist.NetPower, netlist.NetGround:
			return 4
		case netlist.NetSignal:
			return 0.5
		}
		return 1
	default:
		return 1
	}
}

// Config controls the annealer.
type Config struct {
	Profile    Profile
	Seed       int64
	Iterations int // annealing moves; must be positive
	Margin     int // die margin around cells in nm; 0 selects default
	GridPitch  int // routing pitch cells snap to; 0 selects default 140
}

func (c Config) withDefaults() Config {
	if c.Margin == 0 {
		c.Margin = 1400
	}
	if c.GridPitch == 0 {
		c.GridPitch = 140
	}
	if c.Profile == "" {
		c.Profile = ProfileA
	}
	return c
}

// Placement is a legalized placement result.
type Placement struct {
	Circuit *netlist.Circuit
	Loc     []geom.Point       // lower-left corner of each device cell
	Orient  []geom.Orientation // per-device orientation
	Axis    int                // x coordinate of the vertical symmetry axis
	Die     geom.Rect          // bounding die area
	Profile Profile
}

// DeviceRect returns the absolute footprint of device i.
func (p *Placement) DeviceRect(i int) geom.Rect {
	d := p.Circuit.Devices[i]
	return geom.RectWH(p.Loc[i].X, p.Loc[i].Y, d.CellW, d.CellH)
}

// PinRects returns the absolute pin shapes of a device terminal, applying
// the device orientation.
func (p *Placement) PinRects(dev int, term string) []geom.Rect {
	d := p.Circuit.Devices[dev]
	var out []geom.Rect
	for _, r := range d.PinShapes[term] {
		abs := p.Orient[dev].ApplyRect(r, d.CellW, d.CellH).Translate(p.Loc[dev])
		out = append(out, abs)
	}
	return out
}

// HPWL returns the total profile-weighted half-perimeter wirelength.
func (p *Placement) HPWL() float64 {
	total := 0.0
	for ni, n := range p.Circuit.Nets {
		w := p.Profile.NetWeight(n.Type)
		total += w * float64(p.netHPWL(ni))
	}
	return total
}

func (p *Placement) netHPWL(ni int) int {
	n := p.Circuit.Nets[ni]
	first := true
	var bb geom.Rect
	for _, pin := range n.Pins {
		for _, r := range p.PinRects(pin.Device, pin.Terminal) {
			if first {
				bb, first = r, false
			} else {
				bb = bb.Union(r)
			}
		}
	}
	if first {
		return 0
	}
	return bb.W() + bb.H()
}

// Overlap returns the total pairwise overlap area between device cells; a
// legal placement has zero.
func (p *Placement) Overlap() int64 {
	var total int64
	for i := range p.Circuit.Devices {
		ri := p.DeviceRect(i)
		for j := i + 1; j < len(p.Circuit.Devices); j++ {
			if ov, ok := ri.Intersect(p.DeviceRect(j)); ok {
				total += ov.Area()
			}
		}
	}
	return total
}

// Place runs the annealer and returns a legalized placement.
func Place(c *netlist.Circuit, cfg Config) (*Placement, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("place: %w", err)
	}
	if cfg.Iterations <= 0 {
		return nil, fmt.Errorf("place: %d annealing iterations; need at least 1", cfg.Iterations)
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	st := newState(c, cfg, rng)
	st.anneal(rng)
	st.legalize()
	st.snapAndFinish()

	p := st.placement()
	if ov := p.Overlap(); ov > 0 {
		return nil, fmt.Errorf("place: legalization left %d nm^2 overlap", ov)
	}
	return p, nil
}

// state is the annealer working set.
type state struct {
	c    *netlist.Circuit
	cfg  Config
	loc  []geom.Point
	ori  []geom.Orientation
	axis int

	pairOf  []int  // peer device index for symmetric pairs, else -1
	primary []bool // true for the left member of a pair and all singles
}

func newState(c *netlist.Circuit, cfg Config, rng *rand.Rand) *state {
	n := len(c.Devices)
	st := &state{
		c:       c,
		cfg:     cfg,
		loc:     make([]geom.Point, n),
		ori:     make([]geom.Orientation, n),
		pairOf:  make([]int, n),
		primary: make([]bool, n),
	}
	for i := range st.pairOf {
		st.pairOf[i] = -1
		st.primary[i] = true
	}
	for _, pr := range c.SymDevPairs {
		st.pairOf[pr[0]] = pr[1]
		st.pairOf[pr[1]] = pr[0]
		st.primary[pr[1]] = false
		st.ori[pr[1]] = geom.MY
	}

	// Estimate a die half-width from total area and pick the axis.
	var area int64
	maxW := 0
	for _, d := range c.Devices {
		area += int64(d.CellW) * int64(d.CellH)
		if d.CellW > maxW {
			maxW = d.CellW
		}
	}
	side := int(math.Sqrt(float64(area)*2.4)) + 2*maxW
	st.axis = side / 2
	st.axis -= st.axis % cfg.GridPitch // keep mirrored grid points on grid

	// Initial placement: primaries scattered in the left half (pairs) or the
	// whole die (singles), mirrors derived.
	for i, d := range c.Devices {
		if !st.primary[i] {
			continue
		}
		if st.pairOf[i] >= 0 {
			st.loc[i] = geom.Point{
				X: rng.Intn(maxInt(st.axis-d.CellW, 1)),
				Y: rng.Intn(side),
			}
		} else {
			st.loc[i] = geom.Point{X: rng.Intn(side), Y: rng.Intn(side)}
		}
	}
	st.mirrorPairs()
	return st
}

func (st *state) mirrorPairs() {
	for i := range st.c.Devices {
		if st.primary[i] && st.pairOf[i] >= 0 {
			j := st.pairOf[i]
			d := st.c.Devices[i]
			r := geom.RectWH(st.loc[i].X, st.loc[i].Y, d.CellW, d.CellH)
			mr := geom.MirrorRectX(r, st.axis)
			st.loc[j] = mr.Lo
		}
	}
}

func (st *state) rect(i int) geom.Rect {
	d := st.c.Devices[i]
	return geom.RectWH(st.loc[i].X, st.loc[i].Y, d.CellW, d.CellH)
}

// cost is weighted HPWL + overlap penalty + bounding-box area term.
func (st *state) cost() float64 {
	p := st.placementView()
	hpwl := p.HPWL()
	ov := float64(p.Overlap())
	var bb geom.Rect
	first := true
	for i := range st.c.Devices {
		if first {
			bb, first = st.rect(i), false
		} else {
			bb = bb.Union(st.rect(i))
		}
	}
	return hpwl + 0.004*ov + 0.00002*float64(bb.Area())
}

func (st *state) placementView() *Placement {
	return &Placement{Circuit: st.c, Loc: st.loc, Orient: st.ori, Axis: st.axis, Profile: st.cfg.Profile}
}

func (st *state) anneal(rng *rand.Rand) {
	temp := 4.0e5
	cool := math.Pow(1e-4, 1.0/float64(st.cfg.Iterations)) // reach temp*1e-4
	cur := st.cost()
	span := st.axis * 2
	for it := 0; it < st.cfg.Iterations; it++ {
		// Pick a primary device and perturb it.
		i := rng.Intn(len(st.c.Devices))
		if !st.primary[i] {
			i = st.pairOf[i]
		}
		oldLoc := st.loc[i]
		var oldPeer geom.Point
		if st.pairOf[i] >= 0 {
			oldPeer = st.loc[st.pairOf[i]]
		}

		step := 1 + int(float64(span)*0.25*temp/4.0e5)
		st.loc[i] = geom.Point{
			X: clamp(st.loc[i].X+rng.Intn(2*step+1)-step, 0, span),
			Y: clamp(st.loc[i].Y+rng.Intn(2*step+1)-step, 0, span),
		}
		if st.pairOf[i] >= 0 {
			// Keep the primary inside the left half.
			d := st.c.Devices[i]
			if st.loc[i].X+d.CellW > st.axis {
				st.loc[i].X = maxInt(st.axis-d.CellW, 0)
			}
			st.mirrorPairs()
		}

		next := st.cost()
		if next <= cur || rng.Float64() < math.Exp((cur-next)/temp) {
			cur = next
		} else {
			st.loc[i] = oldLoc
			if st.pairOf[i] >= 0 {
				st.loc[st.pairOf[i]] = oldPeer
			}
		}
		temp *= cool
	}
}

// legalize rebuilds a legal grid-aligned placement constructively: devices
// are committed one at a time (symmetric pairs first, larger cells first) at
// the grid-aligned position closest to their annealed location that overlaps
// nothing already committed. Pairs are committed together with their mirror,
// so the result is both overlap-free and exactly symmetric.
func (st *state) legalize() {
	g := st.cfg.GridPitch

	var order []int
	for i := range st.c.Devices {
		if st.primary[i] {
			order = append(order, i)
		}
	}
	areaOf := func(i int) int64 {
		d := st.c.Devices[i]
		return int64(d.CellW) * int64(d.CellH)
	}
	sortOrder(order, func(a, b int) bool {
		pa, pb := st.pairOf[a] >= 0, st.pairOf[b] >= 0
		if pa != pb {
			return pa // pairs first
		}
		if areaOf(a) != areaOf(b) {
			return areaOf(a) > areaOf(b)
		}
		return a < b
	})

	var committed []geom.Rect
	overlapsAny := func(r geom.Rect) bool {
		for _, c := range committed {
			if r.Overlaps(c) {
				return true
			}
		}
		return false
	}

	for _, i := range order {
		d := st.c.Devices[i]
		isPair := st.pairOf[i] >= 0
		want := geom.Point{X: st.loc[i].X - mod(st.loc[i].X, g), Y: st.loc[i].Y - mod(st.loc[i].Y, g)}
		if want.X < 0 {
			want.X = 0
		}
		if want.Y < 0 {
			want.Y = 0
		}
		if isPair && want.X+d.CellW > st.axis {
			want.X = st.axis - d.CellW
			want.X -= mod(want.X, g)
		}

		found := false
	search:
		for ring := 0; ring < 600; ring++ {
			for _, off := range ringOffsets(ring) {
				pos := geom.Point{X: want.X + off.X*g, Y: want.Y + off.Y*g}
				if pos.X < 0 || pos.Y < 0 {
					continue
				}
				r := geom.RectWH(pos.X, pos.Y, d.CellW, d.CellH)
				if isPair {
					if pos.X+d.CellW > st.axis {
						continue
					}
					mr := geom.MirrorRectX(r, st.axis)
					if r.Overlaps(mr) || overlapsAny(r) || overlapsAny(mr) {
						continue
					}
					st.loc[i] = pos
					st.loc[st.pairOf[i]] = mr.Lo
					committed = append(committed, r, mr)
				} else {
					if overlapsAny(r) {
						continue
					}
					st.loc[i] = pos
					committed = append(committed, r)
				}
				found = true
				break search
			}
		}
		if !found {
			// The ring budget is generous enough that this cannot happen for
			// realistic designs, but keep the device where it is rather than
			// looping forever; Place reports residual overlap.
			continue
		}
	}
}

// ringOffsets enumerates the grid offsets at Chebyshev distance ring from the
// origin, nearest ring first (ring 0 is the origin itself).
func ringOffsets(ring int) []geom.Point {
	if ring == 0 {
		return []geom.Point{{}}
	}
	var out []geom.Point
	for dx := -ring; dx <= ring; dx++ {
		out = append(out, geom.Point{X: dx, Y: -ring}, geom.Point{X: dx, Y: ring})
	}
	for dy := -ring + 1; dy < ring; dy++ {
		out = append(out, geom.Point{X: -ring, Y: dy}, geom.Point{X: ring, Y: dy})
	}
	return out
}

// sortOrder is a tiny insertion sort to avoid importing sort for one call on
// a short slice.
func sortOrder(a []int, less func(x, y int) bool) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && less(a[j], a[j-1]); j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// snapAndFinish verifies grid alignment (legalize emits aligned positions)
// and refreshes pair mirrors.
func (st *state) snapAndFinish() {
	st.mirrorPairs()
}

func (st *state) placement() *Placement {
	p := st.placementView()
	// Normalize to a margin-padded die at the origin, preserving grid phase
	// by translating in whole pitches.
	var bb geom.Rect
	first := true
	for i := range st.c.Devices {
		if first {
			bb, first = p.DeviceRect(i), false
		} else {
			bb = bb.Union(p.DeviceRect(i))
		}
	}
	g := st.cfg.GridPitch
	m := st.cfg.Margin
	shift := geom.Point{X: m - bb.Lo.X, Y: m - bb.Lo.Y}
	shift.X += mod(-shift.X, g) + g
	shift.Y += mod(-shift.Y, g) + g
	for i := range p.Loc {
		p.Loc[i] = p.Loc[i].Add(shift)
	}
	p.Axis += shift.X
	bb = bb.Translate(shift)
	p.Die = geom.Rect{Lo: geom.Point{}, Hi: geom.Point{X: bb.Hi.X + m, Y: bb.Hi.Y + m}}
	return p
}

func clamp(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// mod returns the non-negative remainder of x by m.
func mod(x, m int) int {
	r := x % m
	if r < 0 {
		r += m
	}
	return r
}
