package gnn3d

import (
	"fmt"

	"analogfold/internal/ad"
	"analogfold/internal/hetgraph"
	"analogfold/internal/tensor"
)

// InferSession is a reusable inference context for one (model, graph) pair:
// a frozen weight view, a tape-bound forward environment, and a persistent
// guidance leaf. After the first Forward warms the tape, every further
// SetC → Forward → ad.Backward cycle replays the recorded graph — a handful
// of allocations instead of one per op — while producing bit-identical
// values and guidance gradients.
//
// A session belongs to one goroutine at a time (the tape is single-owner);
// any number of sessions may share one trained Model, whose weight tensors
// they only read.
type InferSession struct {
	m    *Model // frozen view; shares the source model's weight tensors
	tp   *ad.Tape
	env  *forwardEnv
	c    *ad.Var
	nets int
}

// NewInferSession builds a session for evaluating m on g. The session's
// tape folds every subgraph that does not read the guidance (the M encoder,
// the unguided relations' distance expansions, the first round's messages
// from M nodes, each relation's bias term): those values are computed once,
// when the first Forward records the tape, and reused by every replay. The
// weights are read as constants, so a session must not outlive a weight
// update of m; build a new session after training m further or loading new
// weights into it.
func NewInferSession(m *Model, g *hetgraph.Graph) *InferSession {
	fm := m.Frozen()
	tp := ad.NewTape()
	nets := len(g.Circuit.Nets)
	return &InferSession{
		m:    fm,
		tp:   tp,
		env:  fm.buildEnv(g, 1, tp.Const),
		c:    tp.Leaf(tensor.New(nets, 3), true),
		nets: nets,
	}
}

// Tape exposes the session's tape so callers can bind their own constants to
// it (e.g. the relaxation's FoM weights and barrier bound) and extend the
// replayed graph past the model output.
func (s *InferSession) Tape() *ad.Tape { return s.tp }

// C is the session's guidance leaf; after a Backward through Forward's
// output, C().Grad holds ∂/∂C (valid until the next backward pass).
func (s *InferSession) C() *ad.Var { return s.c }

// SetC copies a flat [numNets × 3] guidance vector into the session's leaf.
func (s *InferSession) SetC(x []float64) error {
	if len(x) != s.nets*3 {
		return fmt.Errorf("gnn3d: session guidance length %d, want %d", len(x), s.nets*3)
	}
	copy(s.c.Value.Data, x)
	return nil
}

// Forward predicts the normalized metrics for the current guidance,
// replaying the session tape. The result is bit-identical to
// Model.Forward(g, ad.Leaf(c, true)) on the source model.
func (s *InferSession) Forward() *ad.Var {
	s.tp.Reset()
	return injectNaN(forwardCore(s.env, s.c))
}
