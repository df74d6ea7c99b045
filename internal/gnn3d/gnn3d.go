// Package gnn3d implements the protein-inspired 3DGNN of the paper's
// Section 4.2: cost-aware message passing over the heterogeneous routing
// graph. The cost-aware distance of Eq. (1),
//
//	d_cost(v_k, v_s) = sqrt((C_k[0]·h)² + (C_k[1]·w)² + (C_k[2]·z)²),
//
// is expanded with radial basis functions Ψ (Eq. 2–3, avoiding the linear-
// regime plateau), modulates every message via the distance-augmented module
// MLP(MLP(v) ⊙ MLP(Ψ(d_cost))) (Eq. 5), and after L rounds of
// update/aggregate/combine (Algorithm 1) a global readout u = Σ MLP(v_i)
// feeds the FC head that predicts the five performance metrics (Eq. 6).
//
// The whole forward pass is built on the ad tape, so gradients w.r.t. the
// guidance input C are available for the potential relaxation of Section 4.3.
package gnn3d

import (
	"fmt"
	"math/rand"

	"analogfold/internal/ad"
	"analogfold/internal/hetgraph"
	"analogfold/internal/nn"
	"analogfold/internal/tensor"
)

// NumMetrics is the size of the prediction head: offset voltage, CMRR,
// unity-gain bandwidth, DC gain, noise.
const NumMetrics = 5

// Config sizes the model. The three ablation switches disable, one at a
// time, the architectural choices Section 4.2 argues for; the ablation
// benchmarks compare them against the full model.
type Config struct {
	Hidden   int     // node embedding width
	Layers   int     // message-passing rounds L
	RBFBins  int     // number of radial basis centers K
	RBFGamma float64 // RBF width γ
	DMax     float64 // distance normalization span for the RBF centers (µm)
	Seed     int64

	// NoRBF feeds the raw cost distance into the message MLPs instead of
	// the radial-basis expansion Ψ — the "initial network behaves linearly"
	// plateau the paper warns about.
	NoRBF bool
	// NoCostAware computes edge distances with C ≡ 1, removing guidance from
	// the distance function (guidance still reaches the model via node
	// features).
	NoCostAware bool
	// No3D drops the z component from every distance — the 2D limitation of
	// GeniusRoute-style guidance the paper's 3D formulation addresses.
	No3D bool
}

// Defaults returns the configuration used by the experiments.
func Defaults() Config {
	return Config{Hidden: 24, Layers: 2, RBFBins: 12, RBFGamma: 6, DMax: 12, Seed: 1}
}

func (c Config) withDefaults() Config {
	d := Defaults()
	if c.Hidden == 0 {
		c.Hidden = d.Hidden
	}
	if c.Layers == 0 {
		c.Layers = d.Layers
	}
	if c.RBFBins == 0 {
		c.RBFBins = d.RBFBins
	}
	if c.RBFGamma == 0 {
		c.RBFGamma = d.RBFGamma
	}
	if c.DMax == 0 {
		c.DMax = d.DMax
	}
	return c
}

// relation is the distance-augmented message module for one edge type:
// msg = mix(src(v_src) ⊙ rbf(Ψ(d_cost))) — Eq. (5). Each module is a single
// affine layer (no activation), which is what lets aggregate move src and mix
// across the edge gather/scatter exactly.
type relation struct {
	src *nn.Linear
	rbf *nn.Linear
	mix *nn.Linear
}

func newRelation(rng *rand.Rand, hidden, k int) *relation {
	if k <= 0 {
		k = 1 // NoRBF ablation: raw distance column
	}
	return &relation{
		src: nn.NewLinear(hidden, hidden, rng),
		rbf: nn.NewLinear(k, hidden, rng),
		mix: nn.NewLinear(hidden, hidden, rng),
	}
}

func (r *relation) params() []*ad.Var {
	var ps []*ad.Var
	ps = append(ps, r.src.Params()...)
	ps = append(ps, r.rbf.Params()...)
	ps = append(ps, r.mix.Params()...)
	return ps
}

// aggregate returns the summed incoming messages of every destination node,
// Σ_{e→i} mix(src(v_src(e)) ⊙ rbf(Ψ_e)), given the source node embeddings v
// and the relation's distance expansion psi. Because src and mix are affine,
// src runs on the source node rows before the gather, and mix's weight runs
// on the destination node rows after the scatter, with its bias added
// in-degree times (deg ⊗ b); only rbf, whose input Ψ is per edge, runs on
// edge rows. The gather, the product with rb and the scatter-sum are one
// ad.MessageSum. A non-nil re.tile means psi covers only the base
// (single-instance) edge set of a stacked batch: rbf runs once on those rows
// and the result is row-tiled to the full edge set — the expansion is
// guidance-independent there, so every instance's rows are the same bits.
func (r *relation) aggregate(v, psi *ad.Var, re *relEnv) *ad.Var {
	s := r.src.Forward(v)
	rb := r.rbf.Forward(psi)
	if re.tile != nil {
		rb = ad.Gather(rb, re.tile)
	}
	sum := ad.MessageSum(s, rb, re.msg)
	return ad.Add(ad.MatMul(sum, r.mix.W), ad.MatMul(re.deg, r.mix.B))
}

// view returns r with its weights rewrapped by leaf (see Model.View).
func (r *relation) view(leaf func(*tensor.Tensor) *ad.Var) *relation {
	return &relation{src: r.src.View(leaf), rbf: r.rbf.View(leaf), mix: r.mix.View(leaf)}
}

// layer holds the relations of one message-passing round.
type layer struct {
	pp *relation // AP → AP
	mp *relation // M → AP
	pm *relation // AP → M
	mm *relation // M → M
}

// Model is the trained 3DGNN.
type Model struct {
	Cfg Config
	// Circuit is the provenance stamp: the netlist the model was trained on.
	// Set by the trainer before Save; Load restores it and ValidateStamp
	// rejects a checkpoint whose stamp doesn't match the requesting flow.
	Circuit string

	apEnc *nn.MLP
	mEnc  *nn.MLP
	lays  []*layer
	out   *nn.MLP // per-node readout MLP of φu
	head  *nn.MLP // FC head to NumMetrics

	mus []float64

	// Normalization of the training targets (per metric).
	YMean [NumMetrics]float64
	YStd  [NumMetrics]float64
}

// New builds an untrained model.
func New(cfg Config) *Model {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{
		Cfg:   cfg,
		apEnc: nn.NewMLP(rng, hetgraph.APFeatDim+3, cfg.Hidden),
		mEnc:  nn.NewMLP(rng, hetgraph.MFeatDim, cfg.Hidden),
		out:   nn.NewMLP(rng, cfg.Hidden, cfg.Hidden),
		head:  nn.NewMLP(rng, cfg.Hidden, cfg.Hidden, NumMetrics),
	}
	kIn := cfg.RBFBins
	if cfg.NoRBF {
		kIn = -1
	}
	for i := 0; i < cfg.Layers; i++ {
		m.lays = append(m.lays, &layer{
			pp: newRelation(rng, cfg.Hidden, kIn),
			mp: newRelation(rng, cfg.Hidden, kIn),
			pm: newRelation(rng, cfg.Hidden, kIn),
			mm: newRelation(rng, cfg.Hidden, kIn),
		})
	}
	for i := range m.YStd {
		m.YStd[i] = 1
	}
	m.mus = make([]float64, cfg.RBFBins)
	for i := range m.mus {
		m.mus[i] = cfg.DMax * float64(i) / float64(cfg.RBFBins-1)
	}
	return m
}

// View returns the model with every weight tensor rewrapped by leaf: same
// architecture, normalization and stamp, the weight tensors shared, the
// graph nodes new. It is the one way a forward pass sees another context's
// weights:
//
//   - Frozen (leaf = ad.Const) is the inference view. Backward passes skip
//     the weights, so concurrent sessions (relax workers, the serving daemon)
//     share one trained model without copies.
//   - Fit's per-worker training view binds each weight to the worker's tape
//     as a requires-grad leaf. The weight gradients of one sample then land
//     on that tape's leaves, never on m's, so workers need no model copies;
//     and the optimizer's in-place steps on m are what the next sample sees.
func (m *Model) View(leaf func(*tensor.Tensor) *ad.Var) *Model {
	v := &Model{
		Cfg: m.Cfg, Circuit: m.Circuit,
		apEnc: m.apEnc.View(leaf), mEnc: m.mEnc.View(leaf),
		out: m.out.View(leaf), head: m.head.View(leaf),
		mus: m.mus, YMean: m.YMean, YStd: m.YStd,
	}
	for _, l := range m.lays {
		v.lays = append(v.lays, &layer{
			pp: l.pp.view(leaf), mp: l.mp.view(leaf), pm: l.pm.view(leaf), mm: l.mm.view(leaf),
		})
	}
	return v
}

// Frozen returns the inference view of the model (View with ad.Const).
func (m *Model) Frozen() *Model { return m.View(ad.Const) }

// Params returns every trainable parameter.
func (m *Model) Params() []*ad.Var {
	var ps []*ad.Var
	ps = append(ps, m.apEnc.Params()...)
	ps = append(ps, m.mEnc.Params()...)
	for _, l := range m.lays {
		ps = append(ps, l.pp.params()...)
		ps = append(ps, l.mp.params()...)
		ps = append(ps, l.pm.params()...)
		ps = append(ps, l.mm.params()...)
	}
	ps = append(ps, m.out.Params()...)
	ps = append(ps, m.head.Params()...)
	return ps
}

// Forward predicts the five normalized metrics for a graph under guidance C
// (an ad.Var of shape [numNets × 3], which may require gradients). The guided
// edge distances run through the fused ad.RBFDist op; the ablation configs
// keep the explicit Eq. (1)–(3) chain (see relEnv.psi in forward.go).
// Forward builds a transient graph, fresh nodes on every call: training and
// relaxation replay tapes instead (Fit, InferSession), and this path is the
// oracle behind Predict and relax.Potential that those are checked against.
func (m *Model) Forward(g *hetgraph.Graph, cVar *ad.Var) (*ad.Var, error) {
	if cVar.Value.Dims() != 2 || cVar.Value.Shape[0] != len(g.Circuit.Nets) || cVar.Value.Shape[1] != 3 {
		return nil, fmt.Errorf("gnn3d: guidance shape %v, want [%d 3]", cVar.Value.Shape, len(g.Circuit.Nets))
	}
	return injectNaN(forwardCore(m.buildEnv(g, 1, ad.Const), cVar)), nil
}

// onesRow builds a 1×n row of ones (used to sum node embeddings via matmul).
func onesRow(n int) *tensor.Tensor {
	t := tensor.New(1, n)
	t.Fill(1)
	return t
}

// Normalize maps raw metric values into model space.
func (m *Model) Normalize(y [NumMetrics]float64) [NumMetrics]float64 {
	var out [NumMetrics]float64
	for i := range y {
		out[i] = (y[i] - m.YMean[i]) / m.YStd[i]
	}
	return out
}

// Denormalize maps model outputs back to metric units.
func (m *Model) Denormalize(y [NumMetrics]float64) [NumMetrics]float64 {
	var out [NumMetrics]float64
	for i := range y {
		out[i] = y[i]*m.YStd[i] + m.YMean[i]
	}
	return out
}

// Predict runs the model and returns denormalized metrics.
func (m *Model) Predict(g *hetgraph.Graph, c *tensor.Tensor) ([NumMetrics]float64, error) {
	var out [NumMetrics]float64
	pred, err := m.Forward(g, ad.Const(c))
	if err != nil {
		return out, err
	}
	for i := 0; i < NumMetrics; i++ {
		out[i] = pred.Value.Data[i]
	}
	return m.Denormalize(out), nil
}
