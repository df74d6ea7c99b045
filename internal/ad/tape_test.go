package ad

import (
	"math"
	"math/rand"
	"testing"

	"analogfold/internal/tensor"
)

// buildExpr constructs a small but op-diverse scalar expression over the
// given leaves: x [n×3] requires gradients, w [3×3] and r [1×n] are constants
// (frozen weights), u [n×3] is a non-differentiable input whose data changes
// between passes, and the fixture supplies stable index slices and a fused
// spec. It is a pure function of its inputs, so the same call sequence
// replays exactly on a tape. Every op whose backward hands out an unzeroed
// scratch slot or writes a stale gradient in one pass is reached with a
// requires-grad input (MatMul on both sides, ScatterAdd, ConcatCols, RBF,
// Sum, and the gradCopy ops Sub, Scale, ReLU, SiLU, Tanh, Square, Sqrt, Exp,
// Log), and k and kr read constants only, so a tape folds them.
func buildExpr(x, w, r, u *Var, fx exprFixture) *Var {
	y := MatMul(x, w)                 // [n×3]
	y = Add(SiLU(y), Mul(Tanh(y), x)) // elementwise mix
	y = ScatterAdd(Gather(y, fx.gIdx), fx.sIdx, fx.n)
	y = ConcatCols(Cols(y, 0, 1), Cols(y, 1, 3)) // identity re-assembly
	y = AddConst(Scale(y, 0.5), 0.25)
	psi := RBFDist(x, fx.spec) // fused cost-distance expansion
	d := Sqrt(AddConst(Square(Cols(y, 0, 1)), 1e-3))
	k := Log(AddConst(Exp(Scale(w, 0.5)), 1)) // [3×3], constants only
	kr := Tanh(r)                             // [1×n], constants only
	z := Sub(MatMul(u, k), ReLU(Sub(x, u)))   // [n×3], reads the input
	rz := MatMul(kr, Mul(Exp(Scale(z, 0.1)), Log(AddConst(y, 1))))
	return Add(Add(Add(Sum(y), Sum(RBF(d, fx.spec.Mus, 2.0))), Sum(psi)), Sum(rz))
}

type exprFixture struct {
	n          int
	gIdx, sIdx []int
	spec       *FusedRBF
}

func newExprFixture(rng *rand.Rand, n int) exprFixture {
	gIdx := make([]int, n)
	sIdx := make([]int, n)
	for i := range gIdx {
		gIdx[i] = rng.Intn(n)
		sIdx[i] = rng.Intn(n)
	}
	e := 2 * n
	spec := &FusedRBF{
		Idx: make([]int, e), H: make([]float64, e), W: make([]float64, e), Z: make([]float64, e),
		Mus: []float64{0, 0.5, 1.5}, Gamma: 3,
	}
	for i := 0; i < e; i++ {
		spec.Idx[i] = rng.Intn(n)
		spec.H[i] = rng.Float64() * 2
		spec.W[i] = rng.Float64() * 2
		spec.Z[i] = rng.Float64()
	}
	return exprFixture{n: n, gIdx: gIdx, sIdx: sIdx, spec: spec}
}

// exprData holds the tensors behind buildExpr's leaves.
type exprData struct {
	x, w, r, u *tensor.Tensor
}

func newExprData(rng *rand.Rand, n int) exprData {
	return exprData{
		x: tensor.New(n, 3),
		w: tensor.New(3, 3).Randn(rng, 0.5),
		r: tensor.New(1, n).Randn(rng, 1),
		u: tensor.New(n, 3),
	}
}

// fill draws new values for the data that changes between passes: the
// requires-grad x and the input u.
func (d exprData) fill(rng *rand.Rand, lo float64) {
	for i := range d.x.Data {
		d.x.Data[i] = lo + rng.Float64()
		d.u.Data[i] = rng.NormFloat64()
	}
}

// bind wraps the data as buildExpr's leaves on tp: x requires gradients, w
// and r are constants, u is an input.
func (d exprData) bind(tp *Tape) (x, w, r, u *Var) {
	return tp.Leaf(d.x, true), tp.Const(d.w), tp.Const(d.r), tp.Input(d.u)
}

// evalFresh computes (loss, dLoss/dx) with a brand-new tapeless graph.
func (fx exprFixture) evalFresh(d exprData) (float64, *tensor.Tensor) {
	x := Leaf(d.x.Clone(), true)
	out := buildExpr(x, Const(d.w.Clone()), Const(d.r.Clone()), Const(d.u.Clone()), fx)
	if err := Backward(out); err != nil {
		panic(err)
	}
	return out.Value.Data[0], x.Grad.Clone()
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestTapeReplayMatchesFresh drives many evaluations with changing inputs
// through one tape and checks every value and gradient is bit-identical to a
// fresh tapeless graph — the core equivalence the relaxation relies on.
func TestTapeReplayMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 5
	fx := newExprFixture(rng, n)
	data := newExprData(rng, n)

	tp := NewTape()
	x, w, r, u := data.bind(tp)
	for pass := 0; pass < 6; pass++ {
		data.fill(rng, 0.1)
		tp.Reset()
		out := buildExpr(x, w, r, u, fx)
		if err := Backward(out); err != nil {
			t.Fatal(err)
		}
		wantF, wantG := fx.evalFresh(data)
		if math.Float64bits(out.Value.Data[0]) != math.Float64bits(wantF) {
			t.Fatalf("pass %d: tape loss %.17g, fresh %.17g", pass, out.Value.Data[0], wantF)
		}
		if !sameFloats(x.Grad.Data, wantG.Data) {
			t.Fatalf("pass %d: tape gradient diverged from fresh graph", pass)
		}
	}
	hits, misses := tp.Stats()
	if hits == 0 || misses == 0 {
		t.Fatalf("stats: hits=%d misses=%d — first pass must record, later passes must replay", hits, misses)
	}
	if wantHits := misses * 5; hits != wantHits {
		t.Errorf("stats: hits=%d misses=%d — every post-warmup pass should be all hits (want %d)", hits, misses, wantHits)
	}
}

// TestTapeSteadyStateAllocs pins the tentpole: a steady-state forward +
// backward on a fixed topology performs at most a handful of allocations
// (the recursion bookkeeping), not the per-op node/tensor/closure churn of a
// fresh graph.
func TestTapeSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n = 6
	fx := newExprFixture(rng, n)
	data := newExprData(rng, n)
	data.fill(rng, 0.1)

	tp := NewTape()
	x, w, r, u := data.bind(tp)
	run := func() {
		tp.Reset()
		out := buildExpr(x, w, r, u, fx)
		if err := Backward(out); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up records the tape and sizes every buffer
	run()
	allocs := testing.AllocsPerRun(50, run)
	if allocs > 4 {
		t.Errorf("steady-state forward+backward allocates %.1f objects, want ≤4", allocs)
	}
}

// TestTapeDivergenceRebuilds checks a tape is an optimization, not a
// constraint: building a different expression after Reset drops the stale
// suffix and still computes correct (fresh-graph-identical) results, and
// switching back re-records.
func TestTapeDivergenceRebuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 4
	fx := newExprFixture(rng, n)
	fx2 := newExprFixture(rng, n) // different indices → diverging graph
	data := newExprData(rng, n)
	data.fill(rng, 0.2)

	tp := NewTape()
	x, w, r, u := data.bind(tp)
	for pass, f := range []exprFixture{fx, fx2, fx, fx2} {
		tp.Reset()
		ZeroGrad(x)
		out := buildExpr(x, w, r, u, f)
		if err := Backward(out); err != nil {
			t.Fatal(err)
		}
		wantF, wantG := f.evalFresh(data)
		if math.Float64bits(out.Value.Data[0]) != math.Float64bits(wantF) {
			t.Fatalf("pass %d: diverged tape loss %.17g, fresh %.17g", pass, out.Value.Data[0], wantF)
		}
		if !sameFloats(x.Grad.Data, wantG.Data) {
			t.Fatalf("pass %d: diverged tape gradient mismatch", pass)
		}
	}
}

// TestRepeatedBackwardGradReuse is the regression test for ZeroGrad/accum
// reallocating gradient tensors: across repeated ZeroGrad → forward →
// Backward cycles the parameter gradient buffer must be reused by pointer,
// and the cycle must not allocate new gradient tensors.
func TestRepeatedBackwardGradReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	xT := tensor.New(4, 3)
	for i := range xT.Data {
		xT.Data[i] = 0.3 + rng.Float64()
	}
	x := Leaf(xT, true)

	// Warm up: first backward allocates the buffer.
	if err := Backward(Sum(Square(x))); err != nil {
		t.Fatal(err)
	}
	buf := x.Grad
	for i := 0; i < 5; i++ {
		ZeroGrad(x)
		if err := Backward(Sum(Square(x))); err != nil {
			t.Fatal(err)
		}
		if x.Grad != buf {
			t.Fatalf("cycle %d: gradient buffer reallocated", i)
		}
	}

	// The tapeless graph still allocates nodes, but the leaf grad must not
	// contribute: pin that a full cycle stays well under the old
	// one-grad-tensor-per-node cost by comparing against a tape cycle, which
	// must do no grad allocation at all.
	tp := NewTape()
	tx := tp.Leaf(xT.Clone(), true)
	cycle := func() {
		tp.Reset()
		ZeroGrad(tx)
		if err := Backward(Sum(Square(tx))); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs > 0 {
		t.Errorf("tape ZeroGrad+Backward cycle allocates %.1f objects, want 0", allocs)
	}
}

// FuzzTapeReset drives random op DAGs through build → backward → reset →
// rebuild with mutated inputs, asserting the replayed tape graph matches a
// fresh tapeless graph bit-for-bit — values and input gradients — including
// occasional mid-sequence divergence to a second DAG. Every pass changes both
// the requires-grad leaf and the tape Input mixed into the DAG next to its
// constant-only subexpressions, so a folded node that reads the input, or a
// scratch slot or gradient left stale by the previous pass, shows up as a
// bit difference.
func FuzzTapeReset(f *testing.F) {
	f.Add(int64(1), uint8(3), false)
	f.Add(int64(2), uint8(5), true)
	f.Add(int64(99), uint8(7), false)
	f.Fuzz(func(t *testing.T, seed int64, size uint8, diverge bool) {
		n := 3 + int(size%5)
		rng := rand.New(rand.NewSource(seed))
		fx := newExprFixture(rng, n)
		fx2 := newExprFixture(rng, n)
		data := newExprData(rng, n)

		tp := NewTape()
		x, w, r, u := data.bind(tp)
		for pass := 0; pass < 4; pass++ {
			data.fill(rng, 0.05)
			cur := fx
			if diverge && pass%2 == 1 {
				cur = fx2
			}
			tp.Reset()
			out := buildExpr(x, w, r, u, cur)
			if err := Backward(out); err != nil {
				t.Fatal(err)
			}
			wantF, wantG := cur.evalFresh(data)
			if math.Float64bits(out.Value.Data[0]) != math.Float64bits(wantF) {
				t.Fatalf("pass %d: tape loss %.17g, fresh %.17g", pass, out.Value.Data[0], wantF)
			}
			if !sameFloats(x.Grad.Data, wantG.Data) {
				t.Fatalf("pass %d: tape-reused gradient != fresh-graph gradient", pass)
			}
		}
	})
}

// TestTapeFoldsConstSubgraph pins the constant-folding contract: after a
// tape records an op that reads only constants, replays reuse its value
// without rerunning the kernel, so mutating a Const's data after recording
// leaves the replayed value unchanged; mutating a tape Input or a
// requires-grad leaf must change it, since neither is ever folded.
func TestTapeFoldsConstSubgraph(t *testing.T) {
	cT := tensor.FromSlice([]float64{0.5, -1, 2}, 1, 3)
	uT := tensor.FromSlice([]float64{1, 2, 3}, 1, 3)
	xT := tensor.FromSlice([]float64{0.25, 0.5, 0.75}, 1, 3)
	tp := NewTape()
	c, u, x := tp.Const(cT), tp.Input(uT), tp.Leaf(xT, true)
	eval := func() float64 {
		tp.Reset()
		k := Exp(Scale(c, 0.5)) // constants only: folded on replay
		out := Add(Sum(Mul(k, u)), Sum(Mul(k, Square(x))))
		if err := Backward(out); err != nil {
			t.Fatal(err)
		}
		return out.Value.Data[0]
	}
	fresh := func() float64 {
		k := Exp(Scale(Const(cT), 0.5))
		return Add(Sum(Mul(k, Const(uT))), Sum(Mul(k, Square(Leaf(xT, true))))).Value.Data[0]
	}

	rec := eval()
	if want := fresh(); rec != want {
		t.Fatalf("recording pass %.17g, tapeless %.17g", rec, want)
	}
	if got := eval(); got != rec {
		t.Fatalf("replay %.17g, recording %.17g", got, rec)
	}
	recGrad := append([]float64(nil), x.Grad.Data...)

	cT.Data[0] = 3 // breaks the contract on purpose: the replay must not see it
	if got := eval(); got != rec {
		t.Errorf("replay after mutating a Const: %.17g, want the recorded %.17g", got, rec)
	}
	if !sameFloats(x.Grad.Data, recGrad) {
		t.Errorf("replayed gradient after mutating a Const: %v, want the recorded %v", x.Grad.Data, recGrad)
	}
	if fresh() == rec {
		t.Fatal("mutating the Const does not change the tapeless value; the check above shows nothing")
	}
	cT.Data[0] = 0.5

	uT.Data[1] = -4
	got := eval()
	if want := fresh(); got != want || got == rec {
		t.Errorf("replay after mutating an Input: %.17g, want the tapeless %.17g (recorded %.17g)", got, want, rec)
	}
	prev := got

	xT.Data[2] = 1.5
	got = eval()
	if want := fresh(); got != want || got == prev {
		t.Errorf("replay after mutating a requires-grad leaf: %.17g, want the tapeless %.17g (before %.17g)", got, want, prev)
	}

	hits, misses := tp.Stats()
	if misses != 8 || hits != 4*misses {
		t.Errorf("stats: hits=%d misses=%d, want one recording of 8 nodes and 4 all-hit replays", hits, misses)
	}
}

// TestFirstAccumulationClearsNegativeZero pins the one-pass gradient write:
// the first accumulation of a backward pass assigns 0 + g, so a −0 gradient
// lands as +0 exactly as zeroing the buffer and then adding did, both into a
// new buffer and into one left stale by an earlier pass on a tape. Scale's
// backward accumulates a pooled copy, Mul's accumulates g ⊙ other directly;
// both produce −0 here.
func TestFirstAccumulationClearsNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	xT := tensor.FromSlice([]float64{1, -2}, 1, 2)
	zT := tensor.FromSlice([]float64{negZero, negZero}, 1, 2)
	exprs := map[string]func(x *Var) *Var{
		"Scale": func(x *Var) *Var { return Sum(Scale(x, negZero)) },
		"Mul":   func(x *Var) *Var { return Sum(Mul(x, Const(zT))) },
	}
	for name, expr := range exprs {
		tp := NewTape()
		tx := tp.Leaf(xT, true)
		for pass := 0; pass < 3; pass++ {
			tp.Reset()
			for _, x := range []*Var{Leaf(xT, true), tx} {
				if err := Backward(expr(x)); err != nil {
					t.Fatal(err)
				}
				for i, g := range x.Grad.Data {
					if math.Float64bits(g) != 0 {
						t.Fatalf("%s tape=%v pass %d: grad[%d] bits %#x, want +0",
							name, x.tape != nil, pass, i, math.Float64bits(g))
					}
				}
			}
		}
	}
}
