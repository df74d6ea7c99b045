package core

import (
	"encoding/json"
	"fmt"
	"time"

	"analogfold/internal/atomicfile"
)

// JSONReport is the machine-readable form of a Table-2 run.
type JSONReport struct {
	GeneratedAt string      `json:"generated_at"`
	Rows        []JSONRow   `json:"rows"`
	Summary     JSONSummary `json:"summary,omitempty"`
}

// JSONRow serializes one benchmark block.
type JSONRow struct {
	Bench     string             `json:"bench"`
	Schematic JSONMetrics        `json:"schematic"`
	Methods   map[string]JSONRun `json:"methods"`
}

// JSONMetrics mirrors circuit.Metrics with stable JSON names.
type JSONMetrics struct {
	OffsetUV     float64 `json:"offset_uv"`
	CMRRdB       float64 `json:"cmrr_db"`
	BandwidthMHz float64 `json:"bandwidth_mhz"`
	GainDB       float64 `json:"gain_db"`
	NoiseUVrms   float64 `json:"noise_uvrms"`
}

// JSONRun is one method's outcome.
type JSONRun struct {
	Metrics      JSONMetrics `json:"metrics"`
	RuntimeSec   float64     `json:"runtime_sec"`
	WirelengthUm float64     `json:"wirelength_um"`
	Vias         int         `json:"vias"`
}

// JSONSummary carries the normalized Average block.
type JSONSummary struct {
	Metrics []string     `json:"metrics"`
	Methods []string     `json:"methods"`
	Ratios  [][3]float64 `json:"ratios"`
}

// BuildJSONReport converts rows into the serializable report.
func BuildJSONReport(rows []*Row, now time.Time) *JSONReport {
	rep := &JSONReport{GeneratedAt: now.UTC().Format(time.RFC3339)}
	conv := func(o *Outcome) JSONRun {
		return JSONRun{
			Metrics: JSONMetrics{
				OffsetUV: o.Metrics.OffsetUV, CMRRdB: o.Metrics.CMRRdB,
				BandwidthMHz: o.Metrics.BandwidthMHz, GainDB: o.Metrics.GainDB,
				NoiseUVrms: o.Metrics.NoiseUVrms,
			},
			RuntimeSec:   o.Runtime().Seconds(),
			WirelengthUm: float64(o.WirelengthNm) / 1000,
			Vias:         o.Vias,
		}
	}
	for _, r := range rows {
		jr := JSONRow{
			Bench: r.Bench,
			Schematic: JSONMetrics{
				CMRRdB: r.Schematic.CMRRdB, BandwidthMHz: r.Schematic.BandwidthMHz,
				GainDB: r.Schematic.GainDB, NoiseUVrms: r.Schematic.NoiseUVrms,
			},
			Methods: map[string]JSONRun{
				string(MethodMagical):    conv(r.Magical),
				string(MethodGenius):     conv(r.Genius),
				string(MethodAnalogFold): conv(r.Ours),
			},
		}
		rep.Rows = append(rep.Rows, jr)
	}
	if len(rows) > 1 {
		s := Summarize(rows)
		rep.Summary = JSONSummary{
			Metrics: metricNames[:],
			Methods: []string{string(MethodMagical), string(MethodGenius), string(MethodAnalogFold)},
		}
		for k := 0; k < 6; k++ {
			rep.Summary.Ratios = append(rep.Summary.Ratios, s.Ratios[k])
		}
	}
	return rep
}

// WriteJSON stores the report at path atomically (temp + rename).
func (r *JSONReport) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return fmt.Errorf("core: report: %w", err)
	}
	if err := atomicfile.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("core: report: %w", err)
	}
	return nil
}
