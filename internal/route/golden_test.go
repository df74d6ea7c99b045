package route_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"analogfold/internal/circuit"
	"analogfold/internal/extract"
	"analogfold/internal/grid"
	"analogfold/internal/guidance"
	"analogfold/internal/netlist"
	"analogfold/internal/place"
	"analogfold/internal/route"
	"analogfold/internal/tech"
)

// The golden-equivalence suite pins the router's exact output on every OTA
// benchmark: the routed cell set (as an FNV-1a digest), the Result totals,
// and the Table-2 metrics obtained through the extract → simulate chain.
// The file testdata/golden_route.json was last re-recorded when A*'s z term
// became the via cost, which changes which of several near-equal paths a
// search settles on. A speed-only change must reproduce it bit for bit, so
// any divergence means a hot-path change altered behavior instead of just
// speed. A deliberate change of search behavior re-records it, after
// TestGuidedSearchOptimal shows every peerless search still finds a
// cheapest path. Regenerate deliberately with:
//
//	go test ./internal/route/ -run TestGoldenEquivalence -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_route.json from the current router")

// goldenEntry is one benchmark's pinned routing outcome.
type goldenEntry struct {
	WirelengthNm int    `json:"wirelength_nm"`
	Vias         int    `json:"vias"`
	Iterations   int    `json:"iterations"`
	CellsDigest  string `json:"cells_digest"` // FNV-1a64 over per-net sorted cell indices
	NumCells     int    `json:"num_cells"`

	// Table-2 metrics through extract → simulate on the routed layout.
	OffsetUV     float64 `json:"offset_uv"`
	CMRRdB       float64 `json:"cmrr_db"`
	BandwidthMHz float64 `json:"bandwidth_mhz"`
	GainDB       float64 `json:"gain_db"`
	NoiseUVrms   float64 `json:"noise_uvrms"`
}

func goldenPath() string { return filepath.Join("testdata", "golden_route.json") }

// routeGoldenEntry routes one benchmark and digests the outcome. Result
// cells are emitted in ascending index order by the router, so hashing every
// net's cell indices in net order is exact and deterministic — any added,
// removed, or moved cell changes the digest.
func routeGoldenEntry(t testing.TB, name string, c *netlist.Circuit) goldenEntry {
	t.Helper()
	p, err := place.Place(c, place.Config{Profile: place.ProfileA, Seed: 1, Iterations: 2000})
	if err != nil {
		t.Fatalf("%s: place: %v", name, err)
	}
	g, err := grid.Build(p, tech.Sim40())
	if err != nil {
		t.Fatalf("%s: grid: %v", name, err)
	}
	res, err := route.Route(g, guidance.Uniform(len(c.Nets)), route.Config{})
	if err != nil {
		t.Fatalf("%s: route: %v", name, err)
	}

	h := fnv.New64a()
	total := 0
	var buf [8]byte
	for ni, cells := range res.NetCells {
		buf[0], buf[1], buf[2], buf[3] = byte(ni), byte(ni>>8), 0xfe, 0xca
		h.Write(buf[:4])
		for _, cell := range cells {
			idx := uint64(g.CellIndex(cell))
			for b := 0; b < 8; b++ {
				buf[b] = byte(idx >> (8 * b))
			}
			h.Write(buf[:])
			total++
		}
	}

	par := extract.Extract(g, res)
	m, merr := circuit.Evaluate(c, par)
	if merr != nil {
		t.Fatalf("%s: evaluate: %v", name, merr)
	}
	return goldenEntry{
		WirelengthNm: res.WirelengthNm,
		Vias:         res.Vias,
		Iterations:   res.Iterations,
		CellsDigest:  fmt.Sprintf("%016x", h.Sum64()),
		NumCells:     total,
		OffsetUV:     m.OffsetUV,
		CMRRdB:       m.CMRRdB,
		BandwidthMHz: m.BandwidthMHz,
		GainDB:       m.GainDB,
		NoiseUVrms:   m.NoiseUVrms,
	}
}

func goldenBenchmarks() map[string]*netlist.Circuit {
	return map[string]*netlist.Circuit{
		"OTA1": netlist.OTA1(),
		"OTA2": netlist.OTA2(),
		"OTA3": netlist.OTA3(),
		"OTA4": netlist.OTA4(),
	}
}

// TestGoldenEquivalence asserts the router reproduces the pinned pre-change
// outputs bit-for-bit on OTA1–OTA4 with the default config.
func TestGoldenEquivalence(t *testing.T) {
	got := map[string]goldenEntry{}
	for name, c := range goldenBenchmarks() {
		got[name] = routeGoldenEntry(t, name, c)
	}

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath())
		return
	}

	raw, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	var want map[string]goldenEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: missing from run", name)
			continue
		}
		if g.CellsDigest != w.CellsDigest || g.NumCells != w.NumCells {
			t.Errorf("%s: routed cells diverged: digest %s/%d cells, want %s/%d",
				name, g.CellsDigest, g.NumCells, w.CellsDigest, w.NumCells)
		}
		if g.WirelengthNm != w.WirelengthNm || g.Vias != w.Vias || g.Iterations != w.Iterations {
			t.Errorf("%s: totals diverged: wl=%d vias=%d iters=%d, want wl=%d vias=%d iters=%d",
				name, g.WirelengthNm, g.Vias, g.Iterations, w.WirelengthNm, w.Vias, w.Iterations)
		}
		for _, m := range []struct {
			label     string
			got, want float64
		}{
			{"offset_uv", g.OffsetUV, w.OffsetUV},
			{"cmrr_db", g.CMRRdB, w.CMRRdB},
			{"bandwidth_mhz", g.BandwidthMHz, w.BandwidthMHz},
			{"gain_db", g.GainDB, w.GainDB},
			{"noise_uvrms", g.NoiseUVrms, w.NoiseUVrms},
		} {
			if math.Abs(m.got-m.want) > 1e-9*math.Max(1, math.Abs(m.want)) {
				t.Errorf("%s: Table-2 metric %s = %.12g, want %.12g", name, m.label, m.got, m.want)
			}
		}
	}
}
