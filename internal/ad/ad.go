// Package ad implements reverse-mode automatic differentiation over
// tensor.Tensor values — the reproduction's replacement for torch autograd.
// The 3DGNN needs gradients both for training (w.r.t. weights) and for the
// paper's potential relaxation (w.r.t. the *input* routing guidance C), which
// a graph of Vars provides uniformly. Steady-state evaluation loops attach a
// Tape (tape.go) to reuse nodes, buffers and closures across rebuilds; the
// numerical behavior is identical either way.
package ad

import (
	"fmt"
	"math"

	"analogfold/internal/tensor"
)

// Var is one node of the computation graph.
type Var struct {
	Value *tensor.Tensor
	Grad  *tensor.Tensor

	requires bool
	// stable marks a node whose value cannot change between tape replays:
	// a non-differentiable constant leaf, or an op node whose inputs are all
	// stable (see the constant-folding contract in tape.go).
	stable bool
	deps   []*Var
	back   func(v *Var)

	// gradLive marks Grad as accumulated since the last ZeroGrad; now that
	// ZeroGrad keeps buffers, Grad != nil no longer implies a live gradient.
	gradLive bool

	// Tape bookkeeping (zero-valued and inert for tapeless graphs): the op
	// kind plus metadata identify the node during replay matching, and the
	// epoch stamps replace the visited map / grad reallocation of the
	// tapeless backward.
	tape    *Tape
	op      uint8
	k       float64
	im      []int
	fm      []float64
	fspec   *FusedRBF
	visitEp uint32
	gradEp  uint32
}

// Leaf creates a graph input. requiresGrad leaves accumulate gradients.
func Leaf(t *tensor.Tensor, requiresGrad bool) *Var {
	return &Var{Value: t, requires: requiresGrad, stable: !requiresGrad, op: opLeaf}
}

// Const creates a non-differentiable graph input. A tape that records an op
// reading it treats it as constant (see Tape.Const): its data must not
// change while that tape replays.
func Const(t *tensor.Tensor) *Var { return Leaf(t, false) }

// RequiresGrad reports whether gradients flow into this node.
func (v *Var) RequiresGrad() bool { return v.requires }

// GradLive reports whether v.Grad holds a gradient accumulated since the
// last ZeroGrad (for tape-bound nodes: during the tape's latest backward
// pass). Optimizers test it instead of Grad == nil, which stopped being a
// liveness signal when ZeroGrad started keeping buffers.
func (v *Var) GradLive() bool {
	if v.tape != nil {
		return v.gradEp != 0 && v.gradEp == v.tape.epoch
	}
	return v.gradLive
}

// SetGrad installs g as v's gradient and marks it live. Callers that reduce
// externally computed gradients into a parameter use it; a plain field
// assignment would leave the liveness flag stale and optimizers would skip
// the parameter.
func (v *Var) SetGrad(g *tensor.Tensor) {
	v.Grad = g
	v.gradLive = g != nil
	if v.tape != nil {
		if g != nil {
			v.gradEp = v.tape.epoch
		} else {
			v.gradEp = 0
		}
	}
}

// gradDst returns v's gradient buffer for one accumulation, allocating it
// on first use and keeping it afterwards, and reports whether the
// accumulation is the first into a cleared buffer: a new one, or for
// tape-bound nodes one left stale by an earlier backward pass. A first
// accumulation assigns 0 + x instead of zeroing the buffer and then adding,
// one memory pass with the same bits (−0 + 0 = +0 either way).
func (v *Var) gradDst() ([]float64, bool) {
	first := false
	if v.Grad == nil {
		v.Grad = tensor.New(v.Value.Shape...)
		first = true
	} else if tp := v.tape; tp != nil && v.gradEp != tp.epoch {
		first = true
	}
	if tp := v.tape; tp != nil {
		v.gradEp = tp.epoch
	}
	v.gradLive = true
	return v.Grad.Data, first
}

// accum adds g into v.Grad.
func (v *Var) accum(g *tensor.Tensor) {
	if !v.requires {
		return
	}
	dst, first := v.gradDst()
	if first {
		for i, x := range g.Data {
			dst[i] = 0 + x
		}
		return
	}
	for i, x := range g.Data {
		dst[i] += x
	}
}

// accumMul adds the elementwise product g ⊙ o into v.Grad without
// materializing it. Each product is rounded before the add (the float64
// conversion blocks fused multiply-add contraction), so the bits match
// accumulating a stored product tensor.
func (v *Var) accumMul(g, o []float64) {
	dst, first := v.gradDst()
	if first {
		for i, x := range g {
			dst[i] = 0 + float64(x*o[i])
		}
		return
	}
	for i, x := range g {
		dst[i] += float64(x * o[i])
	}
}

// Backward runs reverse-mode differentiation from a scalar output.
func Backward(out *Var) error {
	if out.Value.Len() != 1 {
		return fmt.Errorf("ad: backward requires a scalar output, got shape %v", out.Value.Shape)
	}
	if tp := out.tape; tp != nil {
		return tp.backward(out)
	}
	// Topological order by DFS.
	var order []*Var
	seen := map[*Var]bool{}
	var visit func(v *Var)
	visit = func(v *Var) {
		if seen[v] || !v.requires {
			return
		}
		seen[v] = true
		for _, d := range v.deps {
			visit(d)
		}
		order = append(order, v)
	}
	visit(out)

	if out.Grad == nil {
		out.Grad = tensor.New(out.Value.Shape...)
	}
	out.Grad.Fill(1)
	out.gradLive = true
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.back != nil && n.Grad != nil {
			n.back(n)
		}
	}
	return nil
}

// ZeroGrad clears the gradients of the given leaves in place: an existing
// buffer is zeroed and kept rather than dropped, so steady-state training
// loops stop reallocating every parameter gradient each step. Liveness (for
// GradLive) is reset.
func ZeroGrad(vars ...*Var) {
	for _, v := range vars {
		if v.Grad != nil {
			v.Grad.Zero()
		}
		v.gradLive = false
		v.gradEp = 0
	}
}

func sameShape(a, b *Var, op string) {
	if !tensor.SameShape(a.Value, b.Value) {
		panic(fmt.Sprintf("ad: %s shape mismatch %v vs %v", op, a.Value.Shape, b.Value.Shape))
	}
}

// Add returns a + b (same shape).
func Add(a, b *Var) *Var {
	sameShape(a, b, "add")
	out, st := obtain(opAdd, a, b, 0, nil, nil, nil, -1, 0)
	if st == folded {
		return out
	}
	od, bd := out.Value.Data, b.Value.Data
	for i, x := range a.Value.Data {
		od[i] = x + bd[i]
	}
	if st == recorded && out.requires {
		out.back = func(v *Var) {
			a.accum(v.Grad)
			b.accum(v.Grad)
		}
	}
	return out
}

// Sub returns a - b.
func Sub(a, b *Var) *Var {
	sameShape(a, b, "sub")
	out, st := obtain(opSub, a, b, 0, nil, nil, nil, -1, 0)
	if st == folded {
		return out
	}
	od, bd := out.Value.Data, b.Value.Data
	for i, x := range a.Value.Data {
		od[i] = x - bd[i]
	}
	if st == recorded && out.requires {
		out.back = func(v *Var) {
			a.accum(v.Grad)
			if b.requires {
				neg := gradCopy(v, v.Grad)
				for i := range neg.Data {
					neg.Data[i] = -neg.Data[i]
				}
				b.accum(neg)
			}
		}
	}
	return out
}

// Mul returns the elementwise product a ⊙ b.
func Mul(a, b *Var) *Var {
	sameShape(a, b, "mul")
	out, st := obtain(opMul, a, b, 0, nil, nil, nil, -1, 0)
	if st == folded {
		return out
	}
	od, bd := out.Value.Data, b.Value.Data
	for i, x := range a.Value.Data {
		od[i] = x * bd[i]
	}
	if st == recorded && out.requires {
		out.back = func(v *Var) {
			if a.requires {
				a.accumMul(v.Grad.Data, b.Value.Data)
			}
			if b.requires {
				b.accumMul(v.Grad.Data, a.Value.Data)
			}
		}
	}
	return out
}

// Scale returns a * k for a constant k.
func Scale(a *Var, k float64) *Var {
	out, st := obtain(opScale, a, nil, k, nil, nil, nil, -1, 0)
	if st == folded {
		return out
	}
	od := out.Value.Data
	for i, x := range a.Value.Data {
		od[i] = x * k
	}
	if st == recorded && out.requires {
		out.back = func(v *Var) {
			g := gradCopy(v, v.Grad)
			for i := range g.Data {
				g.Data[i] *= k
			}
			a.accum(g)
		}
	}
	return out
}

// AddConst returns a + k elementwise.
func AddConst(a *Var, k float64) *Var {
	out, st := obtain(opAddConst, a, nil, k, nil, nil, nil, -1, 0)
	if st == folded {
		return out
	}
	od := out.Value.Data
	for i, x := range a.Value.Data {
		od[i] = x + k
	}
	if st == recorded && out.requires {
		out.back = func(v *Var) { a.accum(v.Grad) }
	}
	return out
}

// MatMul returns a @ b for 2-D vars.
func MatMul(a, b *Var) *Var {
	out, st := obtain(opMatMul, a, b, 0, nil, nil, nil, a.Value.Shape[0], b.Value.Shape[1])
	if st == folded {
		return out
	}
	tensor.MatMulInto(out.Value, a.Value, b.Value)
	if st == recorded && out.requires {
		out.back = func(v *Var) {
			if a.requires {
				g := gradOverwrite(v, a.Value.Shape)
				tensor.MatMulABTInto(g, v.Grad, b.Value)
				a.accum(g)
			}
			if b.requires {
				g := gradOverwrite(v, b.Value.Shape)
				tensor.MatMulATBInto(g, a.Value, v.Grad)
				b.accum(g)
			}
		}
	}
	return out
}

// AddRow broadcasts a 1×D row vector across an N×D matrix.
func AddRow(a, row *Var) *Var {
	if a.Value.Dims() != 2 || row.Value.Dims() != 2 || row.Value.Shape[0] != 1 ||
		row.Value.Shape[1] != a.Value.Shape[1] {
		panic(fmt.Sprintf("ad: addrow shape mismatch %v + %v", a.Value.Shape, row.Value.Shape))
	}
	n, d := a.Value.Shape[0], a.Value.Shape[1]
	out, st := obtain(opAddRow, a, row, 0, nil, nil, nil, n, d)
	if st == folded {
		return out
	}
	od, ad, rd := out.Value.Data, a.Value.Data, row.Value.Data
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			od[i*d+j] = ad[i*d+j] + rd[j]
		}
	}
	if st == recorded && out.requires {
		out.back = func(v *Var) {
			a.accum(v.Grad)
			if row.requires {
				g := gradScratch(v, row.Value.Shape)
				for i := 0; i < n; i++ {
					for j := 0; j < d; j++ {
						g.Data[j] += v.Grad.Data[i*d+j]
					}
				}
				row.accum(g)
			}
		}
	}
	return out
}

// ReLU applies max(0, x).
func ReLU(a *Var) *Var {
	out, st := obtain(opReLU, a, nil, 0, nil, nil, nil, -1, 0)
	if st == folded {
		return out
	}
	tensor.ApplyInto(out.Value, a.Value, func(x float64) float64 {
		if x > 0 {
			return x
		}
		return 0
	})
	if st == recorded && out.requires {
		out.back = func(v *Var) {
			g := gradCopy(v, v.Grad)
			for i, x := range a.Value.Data {
				if x <= 0 {
					g.Data[i] = 0
				}
			}
			a.accum(g)
		}
	}
	return out
}

// SiLU applies x·sigmoid(x) (the smooth activation used by the message MLPs;
// smoothness matters because relaxation differentiates through the network).
func SiLU(a *Var) *Var {
	out, st := obtain(opSiLU, a, nil, 0, nil, nil, nil, -1, 0)
	if st == folded {
		return out
	}
	tensor.ApplyInto(out.Value, a.Value, func(x float64) float64 { return x * sigmoid(x) })
	if st == recorded && out.requires {
		out.back = func(v *Var) {
			g := gradCopy(v, v.Grad)
			for i, x := range a.Value.Data {
				s := sigmoid(x)
				g.Data[i] *= s + x*s*(1-s)
			}
			a.accum(g)
		}
	}
	return out
}

// Tanh applies tanh elementwise.
func Tanh(a *Var) *Var {
	out, st := obtain(opTanh, a, nil, 0, nil, nil, nil, -1, 0)
	if st == folded {
		return out
	}
	tensor.ApplyInto(out.Value, a.Value, math.Tanh)
	if st == recorded && out.requires {
		out.back = func(v *Var) {
			g := gradCopy(v, v.Grad)
			for i := range g.Data {
				t := out.Value.Data[i]
				g.Data[i] *= 1 - t*t
			}
			a.accum(g)
		}
	}
	return out
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Square returns x² elementwise.
func Square(a *Var) *Var {
	out, st := obtain(opSquare, a, nil, 0, nil, nil, nil, -1, 0)
	if st == folded {
		return out
	}
	tensor.ApplyInto(out.Value, a.Value, func(x float64) float64 { return x * x })
	if st == recorded && out.requires {
		out.back = func(v *Var) {
			g := gradCopy(v, v.Grad)
			for i, x := range a.Value.Data {
				g.Data[i] *= 2 * x
			}
			a.accum(g)
		}
	}
	return out
}

// Sqrt returns √x elementwise, guarded at zero.
func Sqrt(a *Var) *Var {
	out, st := obtain(opSqrt, a, nil, 0, nil, nil, nil, -1, 0)
	if st == folded {
		return out
	}
	tensor.ApplyInto(out.Value, a.Value, func(x float64) float64 { return math.Sqrt(math.Max(x, 0)) })
	if st == recorded && out.requires {
		out.back = func(v *Var) {
			g := gradCopy(v, v.Grad)
			for i := range g.Data {
				d := 2 * out.Value.Data[i]
				if d < 1e-12 {
					d = 1e-12
				}
				g.Data[i] /= d
			}
			a.accum(g)
		}
	}
	return out
}

// Exp returns e^x elementwise.
func Exp(a *Var) *Var {
	out, st := obtain(opExp, a, nil, 0, nil, nil, nil, -1, 0)
	if st == folded {
		return out
	}
	tensor.ApplyInto(out.Value, a.Value, math.Exp)
	if st == recorded && out.requires {
		out.back = func(v *Var) {
			g := gradCopy(v, v.Grad)
			for i := range g.Data {
				g.Data[i] *= out.Value.Data[i]
			}
			a.accum(g)
		}
	}
	return out
}

// Log returns ln(x) elementwise; inputs must be positive.
func Log(a *Var) *Var {
	out, st := obtain(opLog, a, nil, 0, nil, nil, nil, -1, 0)
	if st == folded {
		return out
	}
	tensor.ApplyInto(out.Value, a.Value, math.Log)
	if st == recorded && out.requires {
		out.back = func(v *Var) {
			g := gradCopy(v, v.Grad)
			for i, x := range a.Value.Data {
				g.Data[i] /= x
			}
			a.accum(g)
		}
	}
	return out
}

// Sum reduces all elements to a 1×1 scalar.
func Sum(a *Var) *Var {
	out, st := obtain(opSum, a, nil, 0, nil, nil, nil, 1, 1)
	if st == folded {
		return out
	}
	s := 0.0
	for _, x := range a.Value.Data {
		s += x
	}
	out.Value.Data[0] = s
	if st == recorded && out.requires {
		out.back = func(v *Var) {
			g := gradOverwrite(v, a.Value.Shape)
			g.Fill(v.Grad.Data[0])
			a.accum(g)
		}
	}
	return out
}

// Mean reduces all elements to their average.
func Mean(a *Var) *Var {
	n := float64(a.Value.Len())
	return Scale(Sum(a), 1/n)
}

// Gather selects rows: out[i] = a[idx[i]] for a 2-D a. The idx slice must
// stay unmodified while the graph (or its tape) is alive.
func Gather(a *Var, idx []int) *Var {
	d := a.Value.Shape[1]
	out, st := obtain(opGather, a, nil, 0, idx, nil, nil, len(idx), d)
	if st == folded {
		return out
	}
	for i, r := range idx {
		copy(out.Value.Data[i*d:(i+1)*d], a.Value.Data[r*d:(r+1)*d])
	}
	if st == recorded && out.requires {
		out.back = func(v *Var) {
			g := gradScratch(v, a.Value.Shape)
			for i, r := range idx {
				for j := 0; j < d; j++ {
					g.Data[r*d+j] += v.Grad.Data[i*d+j]
				}
			}
			a.accum(g)
		}
	}
	return out
}

// ScatterAdd sums rows of a into numRows buckets: out[idx[i]] += a[i]. The
// idx slice must stay unmodified while the graph (or its tape) is alive.
func ScatterAdd(a *Var, idx []int, numRows int) *Var {
	d := a.Value.Shape[1]
	out, st := obtain(opScatterAdd, a, nil, 0, idx, nil, nil, numRows, d)
	if st == folded {
		return out
	}
	out.Value.Zero()
	for i, r := range idx {
		for j := 0; j < d; j++ {
			out.Value.Data[r*d+j] += a.Value.Data[i*d+j]
		}
	}
	if st == recorded && out.requires {
		out.back = func(v *Var) {
			g := gradOverwrite(v, a.Value.Shape)
			for i, r := range idx {
				for j := 0; j < d; j++ {
					g.Data[i*d+j] = v.Grad.Data[r*d+j]
				}
			}
			a.accum(g)
		}
	}
	return out
}

// ConcatCols concatenates 2-D vars along columns.
func ConcatCols(vs ...*Var) *Var {
	n := vs[0].Value.Shape[0]
	total := 0
	for _, v := range vs {
		if v.Value.Shape[0] != n {
			panic("ad: concat row mismatch")
		}
		total += v.Value.Shape[1]
	}
	out, st := obtainN(opConcatCols, vs, n, total)
	if st == folded {
		return out
	}
	off := 0
	for _, v := range vs {
		d := v.Value.Shape[1]
		for i := 0; i < n; i++ {
			copy(out.Value.Data[i*total+off:i*total+off+d], v.Value.Data[i*d:(i+1)*d])
		}
		off += d
	}
	if st == recorded && out.requires {
		deps := out.deps
		out.back = func(v *Var) {
			off := 0
			for _, dep := range deps {
				d := dep.Value.Shape[1]
				if dep.requires {
					g := gradOverwrite(v, dep.Value.Shape)
					for i := 0; i < n; i++ {
						copy(g.Data[i*d:(i+1)*d], v.Grad.Data[i*total+off:i*total+off+d])
					}
					dep.accum(g)
				}
				off += d
			}
		}
	}
	return out
}

// Cols slices columns [j0, j1) of a 2-D var.
func Cols(a *Var, j0, j1 int) *Var {
	n, d := a.Value.Shape[0], a.Value.Shape[1]
	w := j1 - j0
	// j0 rides the metadata scalar so replay distinguishes column windows.
	out, st := obtain(opCols, a, nil, float64(j0), nil, nil, nil, n, w)
	if st == folded {
		return out
	}
	for i := 0; i < n; i++ {
		copy(out.Value.Data[i*w:(i+1)*w], a.Value.Data[i*d+j0:i*d+j1])
	}
	if st == recorded && out.requires {
		out.back = func(v *Var) {
			g := gradScratch(v, a.Value.Shape)
			for i := 0; i < n; i++ {
				copy(g.Data[i*d+j0:i*d+j1], v.Grad.Data[i*w:(i+1)*w])
			}
			a.accum(g)
		}
	}
	return out
}

// RBF expands a column vector d (N×1) with radial basis functions:
// out[i,k] = exp(-γ·(d[i]-µ_k)²) — Eq. (3) of the paper. The mus slice must
// stay unmodified while the graph (or its tape) is alive.
func RBF(a *Var, mus []float64, gamma float64) *Var {
	n := a.Value.Shape[0]
	k := len(mus)
	out, st := obtain(opRBF, a, nil, gamma, nil, mus, nil, n, k)
	if st == folded {
		return out
	}
	for i := 0; i < n; i++ {
		di := a.Value.Data[i]
		for j, mu := range mus {
			diff := di - mu
			out.Value.Data[i*k+j] = math.Exp(-gamma * diff * diff)
		}
	}
	if st == recorded && out.requires {
		out.back = func(v *Var) {
			g := gradOverwrite(v, a.Value.Shape)
			for i := 0; i < n; i++ {
				di := a.Value.Data[i]
				s := 0.0
				for j, mu := range mus {
					diff := di - mu
					s += v.Grad.Data[i*k+j] * out.Value.Data[i*k+j] * (-2 * gamma * diff)
				}
				g.Data[i] = s
			}
			a.accum(g)
		}
	}
	return out
}

// MSE returns the mean squared error between pred and target (L2 loss of
// Eq. 6).
func MSE(pred, target *Var) *Var {
	return Mean(Square(Sub(pred, target)))
}
