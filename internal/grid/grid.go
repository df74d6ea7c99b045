// Package grid builds the 3D routing grid the detailed router searches: a
// uniform-pitch lattice over the placed die with one plane per routing layer,
// device-footprint obstacles on M1, and the pin access points of the paper's
// Definition 1 (intersections between pin geometry and routing grids).
package grid

import (
	"fmt"
	"math"

	"analogfold/internal/geom"
	"analogfold/internal/place"
	"analogfold/internal/tech"
)

// AccessPoint is one grid intersection covered by a pin shape.
type AccessPoint struct {
	ID       int
	Net      int
	Device   int
	Terminal string
	Cell     geom.Point3 // grid coordinates (layer 0)
	Pos      geom.Point  // absolute nm position of the grid point
}

// Grid is the routing lattice for one placement. It is read-only after
// Build, so any number of goroutines may route on one Grid at once.
type Grid struct {
	Tech  *tech.Tech
	Place *place.Placement
	Pitch int
	NX    int
	NY    int
	NL    int

	// cell holds one word per lattice point, layer-major: the net owning the
	// point as a pin access point (≥ 0), cellFree or cellBlocked (a device
	// obstacle). An access point is never blocked, so the two are exclusive.
	cell []int16

	// APs are all access points; NetAPs[i] indexes APs by net.
	APs    []AccessPoint
	NetAPs [][]int
}

const (
	cellFree    = int16(-1)
	cellBlocked = int16(-2)
)

// Build constructs the grid for a placement.
func Build(p *place.Placement, tk *tech.Tech) (*Grid, error) {
	if err := tk.Validate(); err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	pitch := tk.GridPitch
	nx := p.Die.Hi.X/pitch + 1
	ny := p.Die.Hi.Y/pitch + 1
	nl := tk.NumLayers()
	if nx < 2 || ny < 2 {
		return nil, fmt.Errorf("grid: die %v too small for pitch %d", p.Die, pitch)
	}
	if n := len(p.Circuit.Nets); n > math.MaxInt16+1 {
		return nil, fmt.Errorf("grid: %d nets, more than the %d a grid cell can name", n, math.MaxInt16+1)
	}
	g := &Grid{
		Tech: tk, Place: p, Pitch: pitch,
		NX: nx, NY: ny, NL: nl,
		cell:   make([]int16, nx*ny*nl),
		NetAPs: make([][]int, len(p.Circuit.Nets)),
	}
	for i := range g.cell {
		g.cell[i] = cellFree
	}

	// Block M1 over device footprints: analog routers avoid crossing active
	// regions on the lowest metal; pins are reached at their pads or from
	// layers above.
	for di := range p.Circuit.Devices {
		r := p.DeviceRect(di)
		g.blockRect(r, 0)
	}

	// Collect pin access points and unblock their cells.
	for ni, n := range p.Circuit.Nets {
		for _, pin := range n.Pins {
			added := 0
			for _, pad := range p.PinRects(pin.Device, pin.Terminal) {
				for _, cell := range g.cellsUnder(pad) {
					idx := g.index(cell)
					if o := g.cell[idx]; o >= 0 && o != int16(ni) {
						// A grid point covered by two different nets' pads
						// would be a short; placement margins prevent this.
						return nil, fmt.Errorf("grid: access point %v shared by nets %s and %s",
							cell, p.Circuit.Nets[o].Name, n.Name)
					}
					if g.cell[idx] == int16(ni) {
						continue // same pad listed twice
					}
					g.cell[idx] = int16(ni) // owned, and so unblocked
					ap := AccessPoint{
						ID: len(g.APs), Net: ni, Device: pin.Device, Terminal: pin.Terminal,
						Cell: cell, Pos: geom.Point{X: cell.X * pitch, Y: cell.Y * pitch},
					}
					g.APs = append(g.APs, ap)
					g.NetAPs[ni] = append(g.NetAPs[ni], ap.ID)
					added++
				}
			}
			if added == 0 {
				// Off-grid pin: no grid point falls inside the pad (coarser
				// technologies have pitches above the pad size). Snap to the
				// nearest grid point — the detailed-routing equivalent of an
				// off-grid pin-access via.
				for _, pad := range p.PinRects(pin.Device, pin.Terminal) {
					ctr := pad.Center()
					cell := geom.Point3{
						X: (ctr.X + pitch/2) / pitch,
						Y: (ctr.Y + pitch/2) / pitch,
						Z: 0,
					}
					if !g.InBounds(cell) {
						continue
					}
					idx := g.index(cell)
					if o := g.cell[idx]; o >= 0 && o != int16(ni) {
						continue
					}
					if g.cell[idx] == int16(ni) {
						added++
						continue
					}
					g.cell[idx] = int16(ni)
					ap := AccessPoint{
						ID: len(g.APs), Net: ni, Device: pin.Device, Terminal: pin.Terminal,
						Cell: cell, Pos: geom.Point{X: cell.X * pitch, Y: cell.Y * pitch},
					}
					g.APs = append(g.APs, ap)
					g.NetAPs[ni] = append(g.NetAPs[ni], ap.ID)
					added++
				}
			}
			if added == 0 {
				return nil, fmt.Errorf("grid: pin %s.%s has no access point",
					p.Circuit.Devices[pin.Device].Name, pin.Terminal)
			}
		}
	}
	return g, nil
}

// Clone returns an independent copy of the grid. Nothing needs one to route:
// after Build the grid is read-only, the router keeps all mutable state in
// its own arrays, and concurrent routes share one grid. Only the benchmark
// harness's label probe still calls it. Tech and Place stay shared.
func (g *Grid) Clone() *Grid {
	ng := *g
	ng.cell = append([]int16(nil), g.cell...)
	ng.APs = append([]AccessPoint(nil), g.APs...)
	ng.NetAPs = make([][]int, len(g.NetAPs))
	for i := range g.NetAPs {
		ng.NetAPs[i] = append([]int(nil), g.NetAPs[i]...)
	}
	return &ng
}

func (g *Grid) index(p geom.Point3) int {
	return (p.Z*g.NY+p.Y)*g.NX + p.X
}

// InBounds reports whether the cell lies inside the lattice.
func (g *Grid) InBounds(p geom.Point3) bool {
	return p.X >= 0 && p.X < g.NX && p.Y >= 0 && p.Y < g.NY && p.Z >= 0 && p.Z < g.NL
}

// Blocked reports whether the cell is a hard obstacle.
func (g *Grid) Blocked(p geom.Point3) bool { return g.BlockedAt(g.index(p)) }

// Owner returns the net owning the cell as a pin access point, or -1.
func (g *Grid) Owner(p geom.Point3) int { return g.OwnerAt(g.index(p)) }

// BlockedAt is Blocked keyed by a flat cell index (see CellIndex), for hot
// loops that already carry the index and would otherwise recompute it.
func (g *Grid) BlockedAt(idx int) bool { return g.cell[idx] == cellBlocked }

// OwnerAt is Owner keyed by a flat cell index.
func (g *Grid) OwnerAt(idx int) int { return int(max(g.cell[idx], cellFree)) }

// NumCells returns the total lattice size.
func (g *Grid) NumCells() int { return g.NX * g.NY * g.NL }

// CellPos returns the absolute nm position of a cell's grid point.
func (g *Grid) CellPos(p geom.Point3) geom.Point {
	return geom.Point{X: p.X * g.Pitch, Y: p.Y * g.Pitch}
}

// CellIndex exposes the flattened index for router-side per-cell tables.
func (g *Grid) CellIndex(p geom.Point3) int { return g.index(p) }

// MirrorCell reflects a cell about the placement's symmetry axis, which the
// placer guarantees to be on a half-pitch boundary.
func (g *Grid) MirrorCell(p geom.Point3) geom.Point3 {
	mx := geom.MirrorX(geom.Point{X: p.X * g.Pitch, Y: 0}, g.Place.Axis).X
	return geom.Point3{X: mx / g.Pitch, Y: p.Y, Z: p.Z}
}

// blockRect marks every grid point strictly inside r on layer z as blocked.
func (g *Grid) blockRect(r geom.Rect, z int) {
	x0 := (r.Lo.X + g.Pitch - 1) / g.Pitch
	x1 := r.Hi.X / g.Pitch
	y0 := (r.Lo.Y + g.Pitch - 1) / g.Pitch
	y1 := r.Hi.Y / g.Pitch
	for y := y0; y <= y1 && y < g.NY; y++ {
		for x := x0; x <= x1 && x < g.NX; x++ {
			if x < 0 || y < 0 {
				continue
			}
			g.cell[g.index(geom.Point3{X: x, Y: y, Z: z})] = cellBlocked
		}
	}
}

// cellsUnder returns all layer-0 cells whose grid point is covered by the
// closed rectangle r.
func (g *Grid) cellsUnder(r geom.Rect) []geom.Point3 {
	x0 := (r.Lo.X + g.Pitch - 1) / g.Pitch
	x1 := r.Hi.X / g.Pitch
	y0 := (r.Lo.Y + g.Pitch - 1) / g.Pitch
	y1 := r.Hi.Y / g.Pitch
	var out []geom.Point3
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			p := geom.Point3{X: x, Y: y, Z: 0}
			if g.InBounds(p) {
				out = append(out, p)
			}
		}
	}
	return out
}

// APByCell returns the access point at a cell, if any.
func (g *Grid) APByCell(p geom.Point3) (AccessPoint, bool) {
	if p.Z != 0 {
		return AccessPoint{}, false
	}
	o := g.Owner(p)
	if o < 0 {
		return AccessPoint{}, false
	}
	for _, id := range g.NetAPs[o] {
		if g.APs[id].Cell == p {
			return g.APs[id], true
		}
	}
	return AccessPoint{}, false
}
