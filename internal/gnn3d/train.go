package gnn3d

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"analogfold/internal/ad"
	"analogfold/internal/fault"
	"analogfold/internal/hetgraph"
	"analogfold/internal/nn"
	"analogfold/internal/obs"
	"analogfold/internal/optim"
	"analogfold/internal/parallel"
	"analogfold/internal/tensor"
)

// Sample is one training example: a guidance assignment and the five metrics
// measured by routing with it and simulating the extracted layout.
type Sample struct {
	C *tensor.Tensor // [numNets × 3]
	Y [NumMetrics]float64
}

// TrainConfig controls Fit.
type TrainConfig struct {
	Epochs      int
	LR          float64
	Seed        int64
	ValFrac     float64
	WeightDecay float64
	// Patience stops training after this many epochs without validation
	// improvement and restores the best-validation weights (set negative to
	// disable).
	Patience int

	// BatchSize groups this many samples per optimizer step (default 1); a
	// trailing partial batch steps on the samples it has. The samples of a
	// batch run in parallel, each on a worker's own tape, and their weight
	// gradients are averaged in sample order, so results are identical for
	// any Workers value.
	BatchSize int
	// Workers bounds the goroutines, and with them the tapes, that compute
	// the per-sample losses and gradients of a batch and the validation
	// losses (0 → GOMAXPROCS).
	Workers int
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Epochs == 0 {
		c.Epochs = 40
	}
	if c.LR == 0 {
		c.LR = 3e-3
	}
	if c.ValFrac == 0 {
		c.ValFrac = 0.15
	}
	if c.WeightDecay == 0 {
		c.WeightDecay = 1e-4
	}
	if c.Patience == 0 {
		c.Patience = 10
	}
	if c.BatchSize == 0 {
		c.BatchSize = 1
	}
	return c
}

// TrainReport records per-epoch losses.
type TrainReport struct {
	TrainLoss []float64
	ValLoss   []float64
}

// fitWorker is one training goroutine's tape, the model's training view
// bound to it (every weight a requires-grad tape leaf sharing the live
// model's tensor, see View) with its forward environment, and two tape
// inputs that take each sample's guidance and normalized target. The
// first sample records the tape; later ones replay it without allocating.
type fitWorker struct {
	tp     *ad.Tape
	params []*ad.Var // the view's weight leaves, in Params() order
	env    *forwardEnv
	c, y   *ad.Var
}

func (m *Model) newFitWorker(g *hetgraph.Graph) *fitWorker {
	tp := ad.NewTape()
	v := m.View(func(t *tensor.Tensor) *ad.Var { return tp.Leaf(t, true) })
	return &fitWorker{
		tp:     tp,
		params: v.Params(),
		env:    v.buildEnv(g, 1, tp.Const),
		c:      tp.Input(tensor.New(len(g.Circuit.Nets), 3)),
		y:      tp.Input(tensor.New(1, NumMetrics)),
	}
}

// run replays one sample's forward pass, which consults the chaos hook
// exactly once, and returns its L2 loss (Eq. 6) against the normalized
// target y. A non-nil grad also receives the weight gradient of the loss,
// flattened in Params() order.
func (w *fitWorker) run(s Sample, y *[NumMetrics]float64, grad []float64) (float64, error) {
	if !tensor.SameShape(s.C, w.c.Value) {
		return 0, fmt.Errorf("gnn3d: guidance shape %v, want %v", s.C.Shape, w.c.Value.Shape)
	}
	copy(w.c.Value.Data, s.C.Data)
	copy(w.y.Value.Data, y[:])
	w.tp.Reset()
	loss := ad.MSE(injectNaN(forwardCore(w.env, w.c)), w.y)
	if grad != nil {
		if err := ad.Backward(loss); err != nil {
			return 0, err
		}
		for _, p := range w.params {
			seg := grad[:p.Value.Len()]
			if p.GradLive() {
				copy(seg, p.Grad.Data)
			} else {
				clear(seg)
			}
			grad = grad[len(seg):]
		}
	}
	return loss.Value.Data[0], nil
}

// Fit trains the model on samples from a fixed graph (one placement), using
// the L2 loss of Eq. (6) on normalized targets. Every sample's forward and
// backward pass replays a per-worker tape through forwardCore, the engine
// InferSession runs, on a training view of m (see View): the optimizer steps
// m's weight tensors in place between batches and the views see each step.
// Training observes ctx at every epoch boundary and before every sample; a
// NaN/Inf training or validation loss aborts with a typed fault.ErrDiverged
// rather than letting the divergence poison the weights silently.
func (m *Model) Fit(ctx context.Context, g *hetgraph.Graph, samples []Sample, cfg TrainConfig) (*TrainReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(samples) < 4 {
		return nil, fault.New(fault.StageTraining, fault.ErrInvalidInput,
			"gnn3d: need at least 4 samples, got %d", len(samples))
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Target normalization. The std is floored at a fraction of the mean so
	// that metrics the routing barely moves (e.g. noise varying in its fourth
	// digit) are not inflated into full-scale targets: fitting their residual
	// would spend capacity on label noise, and the relaxation's FoM would
	// chase it.
	for k := 0; k < NumMetrics; k++ {
		mean, sd := 0.0, 0.0
		for _, s := range samples {
			mean += s.Y[k]
		}
		mean /= float64(len(samples))
		for _, s := range samples {
			d := s.Y[k] - mean
			sd += d * d
		}
		sd = math.Sqrt(sd / float64(len(samples)))
		if floor := 0.02 * math.Abs(mean); sd < floor {
			sd = floor
		}
		if sd < 1e-12 {
			sd = 1
		}
		m.YMean[k] = mean
		m.YStd[k] = sd
	}

	// Shuffled split.
	idx := rng.Perm(len(samples))
	nVal := int(float64(len(samples)) * cfg.ValFrac)
	if nVal < 1 {
		nVal = 1
	}
	val := idx[:nVal]
	train := idx[nVal:]

	targets := make([][NumMetrics]float64, len(samples))
	for i, s := range samples {
		targets[i] = m.Normalize(s.Y)
	}

	params := m.Params()
	opt := optim.NewAdam(params, cfg.LR)
	opt.WeightDecay = cfg.WeightDecay

	// Per-batch-slot losses and gradients, reused by every batch.
	losses := make([]float64, max(cfg.BatchSize, nVal))
	grads := make([][]float64, cfg.BatchSize)
	for k := range grads {
		grads[k] = make([]float64, nn.CountParams(params))
	}
	// pass runs samples ids on the workers, storing the loss of ids[k] in
	// losses[k] and, with backward set, its gradient in grads[k]. Sample k
	// goes to worker k mod the goroutine count: a tape is single-owner, so
	// each worker strides over its own samples instead of sharing a queue.
	// Workers are built on first use.
	workers := make([]*fitWorker, parallel.Workers(cfg.Workers))
	pass := func(ids []int, backward bool) error {
		nw := min(len(workers), len(ids))
		return parallel.ForEach(ctx, nw, nw, func(wi int) error {
			if workers[wi] == nil {
				workers[wi] = m.newFitWorker(g)
			}
			for k := wi; k < len(ids); k += nw {
				if err := ctx.Err(); err != nil {
					return err
				}
				var grad []float64
				if backward {
					grad = grads[k]
				}
				l, err := workers[wi].run(samples[ids[k]], &targets[ids[k]], grad)
				if err != nil {
					return fault.Wrap(fault.StageTraining, fault.ErrModelEval, err, "sample %d", ids[k])
				}
				losses[k] = l
			}
			return nil
		})
	}

	rep := &TrainReport{}
	bestVal := math.Inf(1)
	sinceBest := 0
	var bestSnap []*tensor.Tensor
	// Per-epoch loss telemetry: the epoch loop is serial, so recording here
	// adds nothing to the batch fan-out and is a no-op without a sink.
	tel := obs.FromContext(ctx)
	for ep := 0; ep < cfg.Epochs; ep++ {
		if err := ctx.Err(); err != nil {
			return nil, fault.FromContext(fault.StageTraining, err)
		}
		// Shuffle the training order each epoch.
		rng.Shuffle(len(train), func(a, b int) { train[a], train[b] = train[b], train[a] })
		sum := 0.0
		for start := 0; start < len(train); start += cfg.BatchSize {
			batch := train[start:min(start+cfg.BatchSize, len(train))]
			if err := pass(batch, true); err != nil {
				return nil, err
			}
			// Average the batch's gradients, summed in sample order.
			scale := 1 / float64(len(batch))
			pos := 0
			for _, p := range params {
				buf := p.Grad
				if buf == nil {
					buf = tensor.New(p.Value.Shape...)
				}
				for j := range buf.Data {
					s := 0.0
					for k := range batch {
						s += grads[k][pos+j]
					}
					buf.Data[j] = s * scale
				}
				p.SetGrad(buf)
				pos += p.Value.Len()
			}
			opt.Step()
			for _, l := range losses[:len(batch)] {
				sum += l
			}
		}
		avg := sum / float64(len(train))
		if math.IsNaN(avg) || math.IsInf(avg, 0) {
			return nil, fault.New(fault.StageTraining, fault.ErrDiverged,
				"gnn3d: training loss %g at epoch %d", avg, ep)
		}
		rep.TrainLoss = append(rep.TrainLoss, avg)

		if err := pass(val, false); err != nil {
			return nil, err
		}
		vSum := 0.0
		for _, l := range losses[:nVal] {
			vSum += l
		}
		vAvg := vSum / float64(nVal)
		if math.IsNaN(vAvg) || math.IsInf(vAvg, 0) {
			return nil, fault.New(fault.StageTraining, fault.ErrDiverged,
				"gnn3d: validation loss %g at epoch %d", vAvg, ep)
		}
		rep.ValLoss = append(rep.ValLoss, vAvg)
		if tel.Enabled() {
			obs.Event(ctx, "gnn3d.epoch", obs.Arg{Key: "epoch", Value: ep},
				obs.Arg{Key: "train_loss", Value: avg}, obs.Arg{Key: "val_loss", Value: vAvg})
			tel.Registry().Counter("analogfold_gnn3d_epochs_total").Inc()
		}

		// Early stopping with best-weights restore.
		if vAvg < bestVal {
			bestVal = vAvg
			sinceBest = 0
			bestSnap = bestSnap[:0]
			for _, p := range params {
				bestSnap = append(bestSnap, p.Value.Clone())
			}
		} else if cfg.Patience > 0 {
			sinceBest++
			if sinceBest >= cfg.Patience {
				break
			}
		}
	}
	if bestSnap != nil {
		for i, p := range params {
			copy(p.Value.Data, bestSnap[i].Data)
		}
	}
	return rep, nil
}
