package gnn3d

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"analogfold/internal/ad"
	"analogfold/internal/guidance"
	"analogfold/internal/netlist"
	"analogfold/internal/tensor"
)

// The message-passing rounds once applied every Eq. (5) module per edge: src
// on the gathered source rows, mix on each edge's product, then a
// scatter-sum. relation.aggregate moves src before the gather and mix after
// the scatter, which is exact in real arithmetic because both are single
// affine layers, but rounds differently. The per-edge formulation is kept
// here as the oracle that shows the difference is rounding only.

// edgeMessages computes per-edge messages from gathered source embeddings and
// the RBF-expanded cost distance (the per-edge formulation of Eq. 5).
func (r *relation) edgeMessages(vSrc, psi *ad.Var, tile []int) *ad.Var {
	s := r.src.Forward(vSrc)
	rb := r.rbf.Forward(psi)
	if tile != nil {
		rb = ad.Gather(rb, tile)
	}
	return r.mix.Forward(ad.Mul(s, rb))
}

// edgeForwardCore is forwardCore with every relation's messages computed per
// edge by edgeMessages.
func edgeForwardCore(env *forwardEnv, cVar *ad.Var) *ad.Var {
	cAP := ad.Gather(cVar, env.apNet)
	vAP := env.apEnc.Forward(ad.ConcatCols(env.apFeat, cAP))
	vM := env.mEnc.Forward(env.mFeat)
	if env.mTile != nil {
		vM = ad.Gather(vM, env.mTile)
	}
	psiPP := env.pp.psi(env, cVar)
	psiMP := env.mp.psi(env, nil)
	psiPM := env.pm.psi(env, cVar)
	psiMM := env.mm.psi(env, nil)
	for _, l := range env.lays {
		aggAP := ad.ScatterAdd(l.pp.edgeMessages(ad.Gather(vAP, env.pp.src), psiPP, env.pp.tile), env.pp.dst, env.pp.nDst)
		aggAP = ad.Add(aggAP, ad.ScatterAdd(l.mp.edgeMessages(ad.Gather(vM, env.mp.src), psiMP, env.mp.tile), env.mp.dst, env.mp.nDst))
		aggM := ad.ScatterAdd(l.pm.edgeMessages(ad.Gather(vAP, env.pm.src), psiPM, env.pm.tile), env.pm.dst, env.pm.nDst)
		aggM = ad.Add(aggM, ad.ScatterAdd(l.mm.edgeMessages(ad.Gather(vM, env.mm.src), psiMM, env.mm.tile), env.mm.dst, env.mm.nDst))
		vAP = ad.Add(vAP, aggAP)
		vM = ad.Add(vM, aggM)
	}
	var uAP, uM *ad.Var
	if env.batch == 1 {
		uAP = ad.MatMul(env.onesAP, env.out.Forward(vAP))
		uM = ad.MatMul(env.onesM, env.out.Forward(vM))
	} else {
		uAP = ad.ScatterAdd(env.out.Forward(vAP), env.readAP, env.batch)
		uM = ad.ScatterAdd(env.out.Forward(vM), env.readM, env.batch)
	}
	u := ad.Scale(ad.Add(uAP, uM), env.invN)
	return env.head.Forward(u)
}

// TestNodeRowMessagesMatchEdgeOracle asserts forwardCore agrees with the
// per-edge oracle to within rounding on OTA1–OTA4, at batch 1 and at a
// stacked batch of 4, under the full model and each ablation: predictions,
// the gradient of a weighted prediction sum w.r.t. the guidance C (the
// model's share of ∂V/∂C), and every weight gradient of a training MSE
// backward. The subtests run in parallel: each draws its inputs before it
// starts, in the order the serial loop drew them, and takes the weight
// gradients on its own training view, so no two share mutable state.
func TestNodeRowMessagesMatchEdgeOracle(t *testing.T) {
	const predTol, gradTol = 1e-12, 1e-9
	benches := []struct {
		name string
		c    *netlist.Circuit
		seed int64
	}{
		{"OTA1", netlist.OTA1(), 11},
		{"OTA2", netlist.OTA2(), 12},
		{"OTA3", netlist.OTA3(), 13},
		{"OTA4", netlist.OTA4(), 14},
	}
	variants := []struct {
		name string
		set  func(*Config)
	}{
		{"full", func(*Config) {}},
		{"NoRBF", func(c *Config) { c.NoRBF = true }},
		{"NoCostAware", func(c *Config) { c.NoCostAware = true }},
		{"No3D", func(c *Config) { c.No3D = true }},
	}
	for _, bn := range benches {
		g := buildGraph(t, bn.c, bn.seed)
		nets := len(bn.c.Nets)
		for _, v := range variants {
			cfg := Defaults()
			cfg.Seed = bn.seed
			v.set(&cfg)
			m := New(cfg)
			// New zeroes every bias, which would hide a wrong bias
			// multiplicity; perturb all parameters instead.
			rng := rand.New(rand.NewSource(bn.seed))
			for _, p := range m.Params() {
				for i := range p.Value.Data {
					p.Value.Data[i] += 0.1 * rng.NormFloat64()
				}
			}
			for _, b := range []int{1, 4} {
				stack := tensor.New(b*nets, 3)
				for i := 0; i < b; i++ {
					copy(stack.Data[i*nets*3:], guidance.Sample(nets, rng, 2).Flat())
				}
				wts := tensor.New(b, NumMetrics).Randn(rng, 1)
				target := tensor.New(b, NumMetrics).Randn(rng, 1)
				t.Run(fmt.Sprintf("%s/%s/b%d", bn.name, v.name, b), func(t *testing.T) {
					t.Parallel()
					type outcome struct{ pred, gradC []float64 }
					infer := func(core func(*forwardEnv, *ad.Var) *ad.Var) outcome {
						cv := ad.Leaf(stack.Clone(), true)
						pred := core(m.Frozen().buildEnv(g, b, ad.Const), cv)
						if err := ad.Backward(ad.Sum(ad.Mul(pred, ad.Const(wts)))); err != nil {
							t.Fatal(err)
						}
						return outcome{append([]float64(nil), pred.Value.Data...), append([]float64(nil), cv.Grad.Data...)}
					}
					train := func(core func(*forwardEnv, *ad.Var) *ad.Var) [][]float64 {
						tv := m.View(func(w *tensor.Tensor) *ad.Var { return ad.Leaf(w, true) })
						ps := tv.Params()
						pred := core(tv.buildEnv(g, b, ad.Const), ad.Const(stack))
						if err := ad.Backward(ad.MSE(pred, ad.Const(target))); err != nil {
							t.Fatal(err)
						}
						grads := make([][]float64, len(ps))
						for i, p := range ps {
							grads[i] = append([]float64(nil), p.Grad.Data...)
						}
						return grads
					}

					got, want := infer(forwardCore), infer(edgeForwardCore)
					checkClose(t, "prediction", got.pred, want.pred, predTol)
					checkClose(t, "∂(w·f)/∂C", got.gradC, want.gradC, gradTol)
					gotW, wantW := train(forwardCore), train(edgeForwardCore)
					for i := range wantW {
						checkClose(t, fmt.Sprintf("weight gradient %d", i), gotW[i], wantW[i], gradTol)
					}
				})
			}
		}
	}
}

// checkClose fails unless every element of got is within tol of want,
// relative to want's largest magnitude.
func checkClose(t *testing.T, what string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	scale, worst := 0.0, 0.0
	for i := range want {
		scale = math.Max(scale, math.Abs(want[i]))
		worst = math.Max(worst, math.Abs(got[i]-want[i]))
	}
	if !(worst <= tol*scale) {
		t.Errorf("%s: max deviation %.3g from the per-edge oracle, want ≤ %.0e × %.3g", what, worst, tol, scale)
	}
}
