package ad

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"analogfold/internal/tensor"
)

// MessageSum promises the bits of the three-op chain it replaced,
// ScatterAdd(Mul(Gather(s, Src), rb), Dst, NDst): forward values and every
// gradient. The chain stays here as its oracle.

func messageChain(s, rb *Var, e *Edges) *Var {
	return ScatterAdd(Mul(Gather(s, e.Src), rb), e.Dst, e.NDst)
}

// msgCase is one oracle input: an [n × d] s, an [edges × d] rb, the edge
// spec, and the weights of the scalar loss built around the op.
type msgCase struct {
	n, d        int
	e           *Edges
	s, rb       []float64
	wo, ws, wr  []float64 // loss weights of out, s and rb
	sReq, rbReq bool
	// extra gives s and rb a second use in the loss, so the op's backward
	// accumulates into gradients that already hold a term.
	extra bool
	// shared derives s and rb from the same rows of one leaf x, so both
	// gradients reach x through other ops and the order in which they
	// accumulate into x shows in its bits.
	shared bool
}

// msgResult is what one evaluation of a case yields: the op's output, the
// loss, and the gradients of the leaves (nil when a leaf takes none).
type msgResult struct {
	out, loss   []float64
	gs, grb, gx []float64
}

// msgGraph holds the leaves of one case's graph. On a tape they persist
// across replays; their tensors are rewritten between passes.
type msgGraph struct {
	x, s, rb   *Var
	wo, ws, wr *Var
	// sRows and rbRows pick the rows of x behind s and rb; kept so replays
	// match.
	sRows, rbRows []int
}

// leaf binds t as a graph input on tp (or tapeless when tp is nil): a
// requires-grad leaf, or a non-differentiable one that is folded when
// stable is set and rerun on every replay otherwise.
func leaf(tp *Tape, t *tensor.Tensor, req, stable bool) *Var {
	switch {
	case tp == nil:
		return Leaf(t, req)
	case req:
		return tp.Leaf(t, true)
	case stable:
		return tp.Const(t)
	default:
		return tp.Input(t)
	}
}

func (c *msgCase) bind(tp *Tape, stable bool) *msgGraph {
	edges := len(c.e.Src)
	g := &msgGraph{
		wo: leaf(tp, tensor.FromSlice(append([]float64(nil), c.wo...), c.e.NDst, c.d), false, true),
		ws: leaf(tp, tensor.FromSlice(append([]float64(nil), c.ws...), c.n, c.d), false, true),
		wr: leaf(tp, tensor.FromSlice(append([]float64(nil), c.wr...), edges, c.d), false, true),
	}
	if c.shared {
		// x holds s's values; rb reads x's rows again, edge by edge.
		x := tensor.FromSlice(append([]float64(nil), c.s...), c.n, c.d)
		g.x = leaf(tp, x, c.sReq || c.rbReq, stable)
		g.sRows, g.rbRows = make([]int, c.n), make([]int, edges)
		for i := range g.sRows {
			g.sRows[i] = i
		}
		for i := range g.rbRows {
			g.rbRows[i] = i % c.n
		}
		return g
	}
	g.s = leaf(tp, tensor.FromSlice(append([]float64(nil), c.s...), c.n, c.d), c.sReq, stable)
	g.rb = leaf(tp, tensor.FromSlice(append([]float64(nil), c.rb...), edges, c.d), c.rbReq, stable)
	return g
}

// load rewrites the leaves' data with c's values (a new pass on a tape).
func (g *msgGraph) load(c *msgCase) {
	if g.x != nil {
		copy(g.x.Value.Data, c.s)
		return
	}
	copy(g.s.Value.Data, c.s)
	copy(g.rb.Value.Data, c.rb)
}

// build returns the op's output and the scalar loss. With shared set, s and
// rb are computed from x by ops that also reach x through a second path
// (the residual Sum(x)), as a 3DGNN layer's node embeddings do.
func (g *msgGraph) build(c *msgCase, fused bool) (out, loss *Var) {
	s, rb := g.s, g.rb
	var residual *Var
	if g.x != nil {
		s = Tanh(Gather(g.x, g.sRows))
		rb = Scale(Gather(g.x, g.rbRows), 0.75)
		residual = Sum(g.x)
	}
	if fused {
		out = MessageSum(s, rb, c.e)
	} else {
		out = messageChain(s, rb, c.e)
	}
	loss = Sum(Mul(out, g.wo))
	if c.extra {
		loss = Add(loss, Add(Sum(Mul(s, g.ws)), Sum(Mul(rb, g.wr))))
	}
	if residual != nil {
		loss = Add(loss, residual)
	}
	return out, loss
}

func gradOf(v *Var) []float64 {
	if v == nil || !v.GradLive() {
		return nil
	}
	return append([]float64(nil), v.Grad.Data...)
}

// run evaluates the case's graph once, fused or chained: backward when the
// loss takes a gradient.
func (g *msgGraph) run(c *msgCase, fused bool) (msgResult, error) {
	out, loss := g.build(c, fused)
	if loss.RequiresGrad() {
		if err := Backward(loss); err != nil {
			return msgResult{}, err
		}
	}
	r := msgResult{
		out:  append([]float64(nil), out.Value.Data...),
		loss: append([]float64(nil), loss.Value.Data...),
		gx:   gradOf(g.x),
	}
	if g.x == nil {
		r.gs, r.grb = gradOf(g.s), gradOf(g.rb)
	}
	return r, nil
}

func (r msgResult) diff(want msgResult) error {
	for _, f := range []struct {
		name      string
		got, want []float64
	}{
		{"out", r.out, want.out}, {"loss", r.loss, want.loss},
		{"∂s", r.gs, want.gs}, {"∂rb", r.grb, want.grb}, {"∂x", r.gx, want.gx},
	} {
		if (f.got == nil) != (f.want == nil) || !sameFloats(f.got, f.want) {
			return fmt.Errorf("%s: fused %v, chain %v", f.name, f.got, f.want)
		}
	}
	return nil
}

// checkMessageCase compares the fused op with the chain on one case: with
// no tape; on a tape over three passes with new leaf values (record, then
// replays); and, when neither input takes a gradient, on a tape whose
// constant inputs fold the op.
func checkMessageCase(c *msgCase, next func(*msgCase)) error {
	fused, chain := c.bind(nil, false), c.bind(nil, false)
	got, err := fused.run(c, true)
	if err != nil {
		return err
	}
	want, err := chain.run(c, false)
	if err != nil {
		return err
	}
	if err := got.diff(want); err != nil {
		return fmt.Errorf("no tape: %w", err)
	}

	modes := []bool{false}
	if !c.sReq && !c.rbReq {
		modes = append(modes, true)
	}
	for _, stable := range modes {
		tpF, tpC := NewTape(), NewTape()
		fused, chain := c.bind(tpF, stable), c.bind(tpC, stable)
		for pass := 0; pass < 3; pass++ {
			if pass > 0 && !stable {
				next(c)
				fused.load(c)
				chain.load(c)
			}
			tpF.Reset()
			tpC.Reset()
			got, err := fused.run(c, true)
			if err != nil {
				return err
			}
			want, err := chain.run(c, false)
			if err != nil {
				return err
			}
			if err := got.diff(want); err != nil {
				return fmt.Errorf("tape (stable inputs %v) pass %d: %w", stable, pass, err)
			}
		}
		if hits, _ := tpF.Stats(); hits == 0 {
			return fmt.Errorf("tape (stable inputs %v): no replay hits", stable)
		}
	}
	return nil
}

// msgValues is the value alphabet: both zeros, repeated magnitudes of both
// signs, and values whose products overflow, so rounding, signed-zero and
// infinity handling all show up in the bits.
var msgValues = [16]float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, -0.3, 2.5, -7,
	1e-3, 1.0 / 3, -2.0 / 3, 1e160, -1e160, 5e-324, 3, 0.7,
}

// msgReader turns fuzz bytes into case parameters, yielding zeros once the
// input runs out.
type msgReader struct {
	b []byte
	i int
}

func (r *msgReader) byte() byte {
	if r.i >= len(r.b) {
		r.i++
		return 0
	}
	r.i++
	return r.b[r.i-1]
}

func (r *msgReader) intn(n int) int { return int(r.byte()) % n }

func (r *msgReader) values(k int) []float64 {
	v := make([]float64, k)
	for i := range v {
		v[i] = msgValues[r.byte()&15]
	}
	return v
}

// decodeMessageCase builds a case from fuzz bytes: shape, flags, indices
// (small domains, so repeated Src and Dst indices are common), then values.
func decodeMessageCase(data []byte) (*msgCase, *msgReader) {
	r := &msgReader{b: data}
	n, d := 1+r.intn(4), 1+r.intn(3)
	edges, nDst := r.intn(9), 1+r.intn(4)
	flags := r.byte()
	c := &msgCase{
		n: n, d: d,
		e:     &Edges{Src: make([]int, edges), Dst: make([]int, edges), NDst: nDst},
		sReq:  flags&1 != 0,
		rbReq: flags&2 != 0,
		extra: flags&4 != 0,
	}
	c.shared = flags&8 != 0 && (c.sReq || c.rbReq)
	for i := 0; i < edges; i++ {
		c.e.Src[i], c.e.Dst[i] = r.intn(n), r.intn(nDst)
	}
	c.s, c.rb = r.values(n*d), r.values(edges*d)
	c.wo, c.ws, c.wr = r.values(nDst*d), r.values(n*d), r.values(edges*d)
	return c, r
}

// nextValues draws new s and rb values from the rest of the input.
func (r *msgReader) nextValues(c *msgCase) {
	c.s, c.rb = r.values(len(c.s)), r.values(len(c.rb))
}

// TestMessageSumMatchesChain runs the oracle over seeded random cases that
// between them cover every flag combination, ±0 and overflowing values,
// repeated indices and the empty edge set.
func TestMessageSumMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 400; i++ {
		data := make([]byte, 16+rng.Intn(200))
		rng.Read(data)
		data[4] = byte(i) // every flag combination
		if i%50 == 0 {
			data[2] = 0 // no edges
		}
		c, r := decodeMessageCase(data)
		if err := checkMessageCase(c, r.nextValues); err != nil {
			t.Fatalf("case %d (n=%d d=%d edges=%d nDst=%d sReq=%v rbReq=%v extra=%v shared=%v): %v",
				i, c.n, c.d, len(c.e.Src), c.e.NDst, c.sReq, c.rbReq, c.extra, c.shared, err)
		}
	}
}

// TestMessageSumReplayMatchesBothIndices checks a tape replays a MessageSum
// node only for the same edge spec: a spec with the same Src slice but a
// different Dst must record afresh, not run the old closure.
func TestMessageSumReplayMatchesBothIndices(t *testing.T) {
	src := []int{0, 1, 1, 2}
	e1 := &Edges{Src: src, Dst: []int{0, 0, 1, 1}, NDst: 2}
	e2 := &Edges{Src: src, Dst: []int{1, 0, 0, 1}, NDst: 2}
	sT := tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 3, 2)
	rbT := tensor.FromSlice([]float64{0.5, -1, 2, 0.25, -3, 1.5, 0.75, -0.125}, 4, 2)
	wT := tensor.FromSlice([]float64{1, -2, 3, 0.5}, 2, 2)

	tp := NewTape()
	s, rb, w := tp.Leaf(sT, true), tp.Leaf(rbT, true), tp.Const(wT)
	for pass, e := range []*Edges{e1, e2, e1} {
		tp.Reset()
		loss := Sum(Mul(MessageSum(s, rb, e), w))
		if err := Backward(loss); err != nil {
			t.Fatal(err)
		}
		ws, wrb := Leaf(sT, true), Leaf(rbT, true)
		want := Sum(Mul(messageChain(ws, wrb, e), Const(wT)))
		if err := Backward(want); err != nil {
			t.Fatal(err)
		}
		if !sameFloats(loss.Value.Data, want.Value.Data) ||
			!sameFloats(s.Grad.Data, ws.Grad.Data) || !sameFloats(rb.Grad.Data, wrb.Grad.Data) {
			t.Fatalf("pass %d: replayed node does not follow the edge spec", pass)
		}
	}
}

// FuzzMessageSum is the oracle on arbitrary cases: shape, flags, indices
// and values all come from the input.
func FuzzMessageSum(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 8, 3, 3, 0, 0, 1, 1, 2, 2, 3, 0, 0, 1, 1, 2, 2, 3, 1})
	f.Add([]byte{1, 1, 4, 0, 15, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{2, 0, 0, 1, 7, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, r := decodeMessageCase(data)
		if err := checkMessageCase(c, r.nextValues); err != nil {
			t.Fatal(err)
		}
	})
}
