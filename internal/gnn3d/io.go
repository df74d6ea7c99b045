package gnn3d

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"analogfold/internal/atomicfile"
	"analogfold/internal/fault"
	"analogfold/internal/hetgraph"
)

// modelFile is the JSON serialization of a trained model: configuration,
// target normalization, and every parameter tensor in Params() order.
type modelFile struct {
	Format string `json:"format"`
	// Circuit stamps the checkpoint with its training netlist; omitempty
	// keeps pre-stamp checkpoints loadable (they fail ValidateStamp, which
	// callers treat as "retrain" — never as a hard error).
	Circuit string              `json:"circuit,omitempty"`
	Cfg     Config              `json:"config"`
	YMean   [NumMetrics]float64 `json:"y_mean"`
	YStd    [NumMetrics]float64 `json:"y_std"`
	Tensors []serializedTensor  `json:"tensors"`
}

type serializedTensor struct {
	Shape []int     `json:"shape"`
	Data  []float64 `json:"data"`
}

const modelFormat = "analogfold-3dgnn-v1"

// Save writes the trained model to path as JSON. The write is crash-safe:
// the bytes are staged in a temp file and renamed over path (see atomicfile),
// so a crash mid-save can never leave a torn checkpoint for analogfoldd to
// choke on at startup — path holds either the previous complete model or the
// new one.
func (m *Model) Save(path string) error {
	f := modelFile{Format: modelFormat, Circuit: m.Circuit, Cfg: m.Cfg, YMean: m.YMean, YStd: m.YStd}
	for _, p := range m.Params() {
		f.Tensors = append(f.Tensors, serializedTensor{Shape: p.Value.Shape, Data: p.Value.Data})
	}
	b, err := json.Marshal(&f)
	if err != nil {
		return fmt.Errorf("gnn3d: save: %w", err)
	}
	if err := atomicfile.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("gnn3d: save: %w", err)
	}
	return nil
}

// Load reads a model saved by Save. The configuration is checked before the
// architecture is rebuilt from it, then parameters are restored. Every
// failure, an unreadable file included, is a typed fault.ErrInvalidInput.
func Load(path string) (*Model, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fault.Wrap(fault.StageTraining, fault.ErrInvalidInput, err, "gnn3d: load")
	}
	return decode(b)
}

// decode is Load on the checkpoint's bytes.
func decode(b []byte) (*Model, error) {
	invalid := func(format string, args ...any) error {
		return fault.New(fault.StageTraining, fault.ErrInvalidInput, "gnn3d: load: "+format, args...)
	}
	var f modelFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fault.Wrap(fault.StageTraining, fault.ErrInvalidInput, err, "gnn3d: load")
	}
	if f.Format != modelFormat {
		return nil, invalid("unsupported format %q", f.Format)
	}
	// New allocates what the configuration implies, so a hostile one must
	// not reach it: sizes must be positive, the RBF centers need two bins to
	// span [0, DMax], and the file must hold at least the values New would
	// allocate.
	cfg := f.Cfg.withDefaults()
	values := 0
	for _, st := range f.Tensors {
		values += len(st.Data)
	}
	switch {
	case cfg.Hidden < 1 || cfg.Layers < 1:
		return nil, invalid("config Hidden %d, Layers %d: want positive sizes", cfg.Hidden, cfg.Layers)
	case cfg.RBFBins < 2:
		return nil, invalid("config RBFBins %d: want at least 2", cfg.RBFBins)
	case cfg.paramCount() > float64(values) || cfg.RBFBins > values:
		return nil, invalid("config implies %.0f parameters and %d RBF bins, the file holds %d values",
			cfg.paramCount(), cfg.RBFBins, values)
	}
	m := New(cfg)
	m.Circuit = f.Circuit
	m.YMean = f.YMean
	m.YStd = f.YStd
	params := m.Params()
	if len(params) != len(f.Tensors) {
		return nil, invalid("%d tensors for %d parameters", len(f.Tensors), len(params))
	}
	for i, p := range params {
		st := f.Tensors[i]
		if !slices.Equal(p.Value.Shape, st.Shape) {
			return nil, invalid("tensor %d shape %v, want %v", i, st.Shape, p.Value.Shape)
		}
		if len(st.Data) != p.Value.Len() {
			return nil, invalid("tensor %d has %d values, want %d", i, len(st.Data), p.Value.Len())
		}
		copy(p.Value.Data, st.Data)
	}
	return m, nil
}

// paramCount is the number of weights New(c) allocates, in float64 so that
// no configuration can overflow it.
func (c Config) paramCount() float64 {
	lin := func(in, out int) float64 { return float64(in)*float64(out) + float64(out) }
	h, k := c.Hidden, c.RBFBins
	if c.NoRBF {
		k = 1
	}
	enc := lin(hetgraph.APFeatDim+3, h) + lin(hetgraph.MFeatDim, h) + lin(h, h) + lin(h, h) + lin(h, NumMetrics)
	return enc + float64(c.Layers)*4*(2*lin(h, h)+lin(k, h))
}

// ValidateStamp reports whether a loaded checkpoint may stand in for a model
// freshly trained for circuit with cfg. The comparison normalizes cfg exactly
// as New would, so a zero-valued knob and its explicit default agree. A
// mismatch — including the empty stamp of a pre-stamp checkpoint — means the
// caller must retrain rather than silently serve a stale or foreign model.
func (m *Model) ValidateStamp(circuit string, cfg Config) error {
	if m.Circuit != circuit {
		return fmt.Errorf("gnn3d: checkpoint stamped for circuit %q, want %q", m.Circuit, circuit)
	}
	if want := cfg.withDefaults(); m.Cfg != want {
		return fmt.Errorf("gnn3d: checkpoint config %+v differs from requested %+v", m.Cfg, want)
	}
	return nil
}
