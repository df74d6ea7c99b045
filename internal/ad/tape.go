// Tape arenas: steady-state reuse of the autodiff graph.
//
// The potential relaxation evaluates the same model on the same graph
// topology thousands of times — only the input values change. Rebuilding the
// Var graph from scratch every evaluation allocates a node, a value tensor,
// a deps slice and a backward closure per op, plus a gradient tensor and
// per-op scratch per backward pass; on the 3DGNN that is thousands of
// allocations per objective evaluation.
//
// A Tape removes all of it. Ops record their output nodes on the tape in
// call order. After Reset, rebuilding the same computation replays the
// recording: each op call is matched against the node at the cursor (same op
// kind, same dep pointers, same metadata) and, on a hit, reuses the recorded
// Var — its value buffer, its deps slice and its backward closure (valid
// because every pointer the closure captured is stable across a replay).
// If a call diverges from the recording (a different graph is being built),
// the stale suffix is dropped and recording continues fresh from that point —
// the tape is an optimization, never a semantic constraint.
//
// Constant folding: a node is stable when each of its inputs is a constant
// leaf (Const, or a frozen weight wrapped by ad.Const) or another stable
// node. A replay hit on a stable node skips its forward kernel, because its
// buffer still holds the value computed when the node was recorded; every
// other hit reruns its kernel into the reused buffer. This is sound only
// because a constant's data does not change while a tape that recorded it
// replays. Inputs that take new values between replays without requiring
// gradients are bound with Input, which is never stable; requires-grad
// leaves are never stable either.
//
// Backward passes are allocation-free too: the topological order is rebuilt
// with epoch stamps instead of a visited map (into a tape-owned slice), the
// per-op gradient intermediates come from a scratch-tensor pool that resets
// every pass, and gradient accumulators are lazily cleared by epoch instead
// of being reallocated. Each buffer is written in one pass where it can be:
// a scratch slot that the op assigns in full is handed out as-is, not
// zeroed, and the first accumulation of a pass into a stale gradient assigns
// 0 + g rather than zeroing and then adding (the same bits: −0 becomes +0
// either way). The traversal is the exact recursive DFS of the tapeless
// Backward, so gradient accumulation order — and therefore every
// floating-point result — is bit-identical with the tape on or off.
//
// Concurrency: a Tape and every requires-grad Var on it belong to one
// goroutine at a time. Non-differentiable inputs (Const leaves, frozen
// weights) may be shared across tapes; requires-grad leaves used with a tape
// must be created through Tape.Leaf. Such leaves may wrap a tensor that other
// tapes' leaves wrap too, as the 3DGNN's per-worker training views do with
// the shared weights: the values are only read during a pass, and each
// leaf's gradient belongs to its own tape.
package ad

import (
	"fmt"
	"math"

	"analogfold/internal/tensor"
)

// op kinds, for replay matching.
const (
	opLeaf uint8 = iota
	opAdd
	opSub
	opMul
	opScale
	opAddConst
	opMatMul
	opAddRow
	opReLU
	opSiLU
	opTanh
	opSquare
	opSqrt
	opExp
	opLog
	opSum
	opGather
	opScatterAdd
	opConcatCols
	opCols
	opRBF
	opFusedRBF
	opMessageSum
)

// Tape records the op nodes of a rebuilt-per-evaluation computation so
// steady-state re-evaluations reuse them. Zero value is not usable; call
// NewTape.
type Tape struct {
	nodes []*Var
	pos   int

	// scratch tensors for backward intermediates, reused every pass.
	scr    []*tensor.Tensor
	scrPos int

	// order is the reusable topological-order buffer of backward.
	order []*Var
	// epoch identifies the current backward pass: gradient buffers stamped
	// with an older epoch are stale and overwritten by their first
	// accumulation. Epoch 0 is reserved as "never accumulated".
	epoch uint32

	hits, misses uint64
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// Reset rewinds the tape so the next computation replays the recording from
// the start. Values and gradients of recorded nodes are left as-is: forward
// kernels overwrite the values that can change, stable nodes keep theirs,
// and backward lazily clears gradients by epoch.
func (tp *Tape) Reset() { tp.pos = 0 }

// Leaf creates a graph input bound to the tape. requires-grad leaves must be
// tape-bound when used in tape computations, so their gradient epoch tracking
// follows the tape's backward passes; constant leaves are bound so ops on
// pure-constant subgraphs replay instead of reallocating. Leaf(t, false) is
// Const.
func (tp *Tape) Leaf(t *tensor.Tensor, requiresGrad bool) *Var {
	return &Var{Value: t, requires: requiresGrad, stable: !requiresGrad, op: opLeaf, tape: tp}
}

// Const creates a non-differentiable tape-bound input whose data must not
// change while the tape replays: ops that read only constants are folded,
// computed when recorded and skipped on every replay hit after that. Bind an
// input that takes new values between replays with Input instead.
func (tp *Tape) Const(t *tensor.Tensor) *Var { return tp.Leaf(t, false) }

// Input creates a non-differentiable tape-bound input whose data may change
// between replays (a training sample, a target). It is never folded, so
// every op that reads it reruns on each replay.
func (tp *Tape) Input(t *tensor.Tensor) *Var {
	return &Var{Value: t, op: opLeaf, tape: tp}
}

// Stats reports replay hits and misses since the tape was created — the
// steady-state diagnostic: a warmed tape on a fixed topology should show
// only hits.
func (tp *Tape) Stats() (hits, misses uint64) { return tp.hits, tp.misses }

// scratch returns a pooled tensor of the given shape for backward
// intermediates, zeroed when zero is set and otherwise holding whatever an
// earlier pass left there (for callers that assign every element). Slots are
// handed out in call order and recycled every backward pass; since the pass
// replays identical back closures in an identical order, slot shapes
// stabilize after the first pass.
func (tp *Tape) scratch(shape []int, zero bool) *tensor.Tensor {
	if tp.scrPos < len(tp.scr) {
		t := tp.scr[tp.scrPos]
		if shapeEq(t.Shape, shape) {
			tp.scrPos++
			if zero {
				t.Zero()
			}
			return t
		}
		t = tensor.New(shape...)
		tp.scr[tp.scrPos] = t
		tp.scrPos++
		return t
	}
	t := tensor.New(shape...)
	tp.scr = append(tp.scr, t)
	tp.scrPos++
	return t
}

func shapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// gradScratch returns a zeroed gradient intermediate for v's backward, for
// kernels that accumulate into it: tape nodes draw from the pass-scoped pool,
// tapeless nodes allocate (the legacy behavior).
func gradScratch(v *Var, shape []int) *tensor.Tensor {
	if tp := v.tape; tp != nil {
		return tp.scratch(shape, true)
	}
	return tensor.New(shape...)
}

// gradOverwrite is gradScratch for kernels that assign every element: a
// pooled slot is handed out without zeroing it first.
func gradOverwrite(v *Var, shape []int) *tensor.Tensor {
	if tp := v.tape; tp != nil {
		return tp.scratch(shape, false)
	}
	return tensor.New(shape...)
}

// gradCopy returns a (pooled) copy of src for in-place modification by a
// backward closure.
func gradCopy(v *Var, src *tensor.Tensor) *tensor.Tensor {
	if tp := v.tape; tp != nil {
		t := tp.scratch(src.Shape, false)
		copy(t.Data, src.Data)
		return t
	}
	return src.Clone()
}

// visit appends v's requires-grad ancestors and then v to tp.order in
// post-order — the same recursive DFS as the tapeless Backward, so the
// reversed walk calls back closures, and therefore accumulates gradients, in
// the exact same sequence.
func (tp *Tape) visit(v *Var, ep uint32) {
	if v.visitEp == ep || !v.requires {
		return
	}
	v.visitEp = ep
	for _, d := range v.deps {
		tp.visit(d, ep)
	}
	tp.order = append(tp.order, v)
}

// backward is Backward for tape-bound scalars: identical traversal and
// accumulation order, no per-pass allocation.
func (tp *Tape) backward(out *Var) error {
	tp.epoch++
	tp.scrPos = 0
	tp.order = tp.order[:0]
	ep := tp.epoch
	tp.visit(out, ep)

	if out.Grad == nil {
		out.Grad = tensor.New(out.Value.Shape...)
	}
	out.Grad.Fill(1)
	out.gradEp = ep
	out.gradLive = true
	for i := len(tp.order) - 1; i >= 0; i-- {
		n := tp.order[i]
		if n.back != nil && n.gradEp == ep {
			n.back(n)
		}
	}
	return nil
}

// tapeOf returns the tape an op's output joins: the first input that lives
// on one.
func tapeOf(a, b *Var) *Tape {
	if a != nil && a.tape != nil {
		return a.tape
	}
	if b != nil && b.tape != nil {
		return b.tape
	}
	return nil
}

func sameIntSlice(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

func sameFloatSlice(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// replay is the outcome of matching one op application against the tape.
type replay uint8

const (
	// recorded: a fresh node. The op runs its kernel and, if the node
	// requires gradients, installs its backward closure.
	recorded replay = iota
	// replayed: a recorded node reused. The op reruns its kernel into the
	// node's buffer.
	replayed
	// folded: a recorded stable node reused. Its buffer already holds its
	// value, so the op returns it without running the kernel.
	folded
)

// obtain returns the output node for one op application. With no tape in
// sight it simply allocates (the legacy path). On a tape, the node recorded
// at the cursor is reused when it matches the application — same op kind,
// same dep pointers, same metadata, same output shape — keeping its value
// buffer, deps slice and backward closure; a mismatch means the caller is
// building a different computation, so the stale suffix is dropped and
// recording resumes. The second result tells the op what to run (see
// replay).
//
// r,c give the output shape; r < 0 means "same shape as a" (elementwise).
// k, im, fm and spec are op metadata (scalar constant, index slice, float
// slice, fused spec) matched by value, by slice identity or, for the spec,
// by pointer identity — index and center slices and specs are required to
// be stable across replays, which every caller guarantees by construction.
func obtain(op uint8, a, b *Var, k float64, im []int, fm []float64, spec any, r, c int) (*Var, replay) {
	tp := tapeOf(a, b)
	if tp == nil {
		return freshNode(nil, op, a, b, k, im, fm, spec, r, c), recorded
	}
	if tp.pos < len(tp.nodes) {
		n := tp.nodes[tp.pos]
		if n.op == op && n.k == k && n.spec == spec &&
			sameIntSlice(n.im, im) && sameFloatSlice(n.fm, fm) &&
			depsMatch2(n.deps, a, b) &&
			(r < 0 || (n.Value.Shape[0] == r && n.Value.Shape[1] == c)) {
			return tp.hit(n)
		}
		tp.nodes = tp.nodes[:tp.pos]
	}
	n := freshNode(tp, op, a, b, k, im, fm, spec, r, c)
	tp.record(n)
	return n, recorded
}

// hit advances the cursor past the matched node n.
func (tp *Tape) hit(n *Var) (*Var, replay) {
	tp.pos++
	tp.hits++
	if n.stable {
		return n, folded
	}
	return n, replayed
}

// record appends the fresh node n at the cursor.
func (tp *Tape) record(n *Var) {
	tp.nodes = append(tp.nodes, n)
	tp.pos++
	tp.misses++
}

func depsMatch2(deps []*Var, a, b *Var) bool {
	if b == nil {
		return len(deps) == 1 && deps[0] == a
	}
	return len(deps) == 2 && deps[0] == a && deps[1] == b
}

func freshNode(tp *Tape, op uint8, a, b *Var, k float64, im []int, fm []float64, spec any, r, c int) *Var {
	var val *tensor.Tensor
	if r < 0 {
		val = tensor.New(a.Value.Shape...)
	} else {
		val = tensor.New(r, c)
	}
	n := &Var{
		Value: val, op: op, tape: tp,
		k: k, im: im, fm: fm, spec: spec,
		requires: a.requires || (b != nil && b.requires),
		stable:   a.stable && (b == nil || b.stable),
	}
	if b != nil {
		n.deps = []*Var{a, b}
	} else {
		n.deps = []*Var{a}
	}
	return n
}

// obtainN is obtain for variadic-dependency ops (ConcatCols).
func obtainN(op uint8, vs []*Var, r, c int) (*Var, replay) {
	var tp *Tape
	req, stable := false, true
	for _, v := range vs {
		if v.tape != nil && tp == nil {
			tp = v.tape
		}
		req = req || v.requires
		stable = stable && v.stable
	}
	if tp != nil && tp.pos < len(tp.nodes) {
		n := tp.nodes[tp.pos]
		if n.op == op && depsMatchN(n.deps, vs) &&
			n.Value.Shape[0] == r && n.Value.Shape[1] == c {
			return tp.hit(n)
		}
		tp.nodes = tp.nodes[:tp.pos]
	}
	n := &Var{
		Value: tensor.New(r, c), op: op, tape: tp,
		requires: req, stable: stable, deps: append([]*Var(nil), vs...),
	}
	if tp != nil {
		tp.record(n)
	}
	return n, recorded
}

func depsMatchN(deps, vs []*Var) bool {
	if len(deps) != len(vs) {
		return false
	}
	for i := range vs {
		if deps[i] != vs[i] {
			return false
		}
	}
	return true
}

// FusedRBF is the retained spec of one fused cost-distance → RBF expansion.
// For edge i with extents (H[i], W[i], Z[i]) whose source lies on net
// Idx[i],
//
//	d_i     = sqrt((C[Idx[i],0]·H[i])² + (C[Idx[i],1]·W[i])² + (C[Idx[i],2]·Z[i])²)
//	out[i,j] = exp(-γ·(d_i - Mus[j])²)
//
// which fuses Eq. (1)–(3) of the paper into one op. The spec must outlive
// every node created from it and stay unmodified; replay matching is by spec
// pointer identity.
type FusedRBF struct {
	Idx     []int     // per-edge source-net row into C
	H, W, Z []float64 // per-edge extents
	Mus     []float64 // RBF centers µ
	Gamma   float64   // RBF width γ
}

// RBFDist applies a FusedRBF spec to the guidance matrix c ([numNets × 3]),
// producing the [numEdges × len(Mus)] expansion Ψ(d_cost).
//
// This op replaces the Gather → Cols×3 → Mul → Square → Add → Add → Sqrt →
// RBF chain the model used to materialize per edge set. Bit-identity with
// that chain is a hard requirement (the relaxation's golden trajectories pin
// it), so forward and backward replicate the chain's evaluation order
// exactly: every intermediate the chain materialized in a tensor appears
// here as an explicitly rounded float64 local (the float64 conversions force
// the rounding the chain's memory stores performed, guarding against fused
// multiply-add contraction on architectures where Go emits it).
func RBFDist(c *Var, spec *FusedRBF) *Var {
	n, k := len(spec.Idx), len(spec.Mus)
	out, st := obtain(opFusedRBF, c, nil, spec.Gamma, spec.Idx, spec.Mus, spec, n, k)
	if st == folded {
		return out
	}
	gamma := spec.Gamma
	cd := c.Value.Data
	od := out.Value.Data
	for i, r := range spec.Idx {
		m0 := float64(cd[r*3] * spec.H[i])
		m1 := float64(cd[r*3+1] * spec.W[i])
		m2 := float64(cd[r*3+2] * spec.Z[i])
		s0 := float64(m0 * m0)
		s1 := float64(m1 * m1)
		s2 := float64(m2 * m2)
		sum := float64(float64(s0+s1) + s2)
		d := math.Sqrt(math.Max(sum, 0))
		for j, mu := range spec.Mus {
			diff := d - mu
			od[i*k+j] = math.Exp(-gamma * diff * diff)
		}
	}
	if st == recorded && out.requires {
		out.back = func(v *Var) {
			g := gradScratch(v, c.Value.Shape)
			vg := v.Grad.Data
			ovd := out.Value.Data
			ccd := c.Value.Data
			for i, r := range spec.Idx {
				// Recompute the forward locals (same inputs, same ops — the
				// same bits) instead of storing per-edge state.
				m0 := float64(ccd[r*3] * spec.H[i])
				m1 := float64(ccd[r*3+1] * spec.W[i])
				m2 := float64(ccd[r*3+2] * spec.Z[i])
				s0 := float64(m0 * m0)
				s1 := float64(m1 * m1)
				s2 := float64(m2 * m2)
				sum := float64(float64(s0+s1) + s2)
				d := math.Sqrt(math.Max(sum, 0))
				// RBF backward: ∂/∂d, accumulated over centers in j order.
				s := 0.0
				for j, mu := range spec.Mus {
					diff := d - mu
					s += vg[i*k+j] * ovd[i*k+j] * (-2 * gamma * diff)
				}
				// Sqrt backward with the chain's guarded denominator.
				d2 := 2 * d
				if d2 < 1e-12 {
					d2 = 1e-12
				}
				gsum := s / d2
				// Square then Mul backward per component, each product
				// rounded separately exactly as the chain's stored tensors
				// rounded them.
				q0 := float64(gsum * (2 * m0))
				q1 := float64(gsum * (2 * m1))
				q2 := float64(gsum * (2 * m2))
				g0 := float64(q0 * spec.H[i])
				g1 := float64(q1 * spec.W[i])
				g2 := float64(q2 * spec.Z[i])
				g.Data[r*3] += g0
				g.Data[r*3+1] += g1
				g.Data[r*3+2] += g2
			}
			c.accum(g)
		}
	}
	return out
}

// Edges is the retained index spec of one message pass: edge e carries a
// message from source row Src[e] to destination row Dst[e] of an NDst-row
// output. Like FusedRBF, it must outlive every node created from it and stay
// unmodified; replay matching is by spec pointer identity, which covers both
// index slices.
type Edges struct {
	Src, Dst []int
	NDst     int
}

// MessageSum returns the summed messages out[Dst[e]] += s[Src[e]] ⊙ rb[e]
// for an [nodes × d] s and an [edges × d] rb: one message pass of Eq. (5),
// the CFConv pattern, in one op.
//
// It replaces ScatterAdd(Mul(Gather(s, Src), rb), Dst, NDst) and gives that
// chain's bits: every product is rounded before it is added (the float64
// conversions block fused multiply-add contraction), sums run in edge order
// from a zeroed buffer, and the deps are (s, rb) in that order, so backward
// passes call closures, and accumulate into shared ancestors, in the chain's
// order. Backward writes ∂rb directly, as accumMul does, and ∂s into a
// zeroed scratch that is then accumulated, as Gather's backward does.
func MessageSum(s, rb *Var, e *Edges) *Var {
	d := s.Value.Shape[1]
	if len(e.Dst) != len(e.Src) || rb.Value.Shape[0] != len(e.Src) || rb.Value.Shape[1] != d {
		panic(fmt.Sprintf("ad: message sum shape mismatch: s %v, rb %v, %d src, %d dst",
			s.Value.Shape, rb.Value.Shape, len(e.Src), len(e.Dst)))
	}
	out, st := obtain(opMessageSum, s, rb, 0, e.Src, nil, e, e.NDst, d)
	if st == folded {
		return out
	}
	od, sd, rd := out.Value.Data, s.Value.Data, rb.Value.Data
	out.Value.Zero()
	for i, r := range e.Src {
		o := od[e.Dst[i]*d : e.Dst[i]*d+d]
		x := sd[r*d : r*d+d]
		y := rd[i*d : i*d+d]
		for j := range o {
			o[j] += float64(x[j] * y[j])
		}
	}
	if st == recorded && out.requires {
		out.back = func(v *Var) {
			vg := v.Grad.Data
			if rb.requires {
				// The chain's Mul backward, rb's half: ∂rb[e] = ∂out[Dst[e]] ⊙ s[Src[e]].
				dst, first := rb.gradDst()
				for i, r := range e.Src {
					g := vg[e.Dst[i]*d : e.Dst[i]*d+d]
					x := sd[r*d : r*d+d]
					row := dst[i*d : i*d+d]
					if first {
						for j := range row {
							row[j] = 0 + float64(g[j]*x[j])
						}
					} else {
						for j := range row {
							row[j] += float64(g[j] * x[j])
						}
					}
				}
			}
			if s.requires {
				// Mul's s half then Gather's backward: ∂s[Src[e]] += ∂out[Dst[e]] ⊙ rb[e].
				gs := gradScratch(v, s.Value.Shape)
				for i, r := range e.Src {
					g := vg[e.Dst[i]*d : e.Dst[i]*d+d]
					y := rd[i*d : i*d+d]
					row := gs.Data[r*d : r*d+d]
					for j := range row {
						row[j] += float64(g[j] * y[j])
					}
				}
				s.accum(gs)
			}
		}
	}
	return out
}
