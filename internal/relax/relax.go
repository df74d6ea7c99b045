// Package relax implements the routing-performance potential modeling and
// pool-assisted relaxation of the paper's Section 4.3. The potential
//
//	V(C) = w_FoM · f_θ(G, C) + g(C)                          (Eq. 7)
//	g(C) = -r · Σ_j (log C[j] + log(c_max - C[j]))           (Eq. 8)
//
// combines the trained 3DGNN's (sign-adjusted, equally weighted) metric
// predictions with an interior-point log barrier keeping every guidance
// element inside (0, c_max). Because every term is differentiable in C, each
// start is minimized with L-BFGS; a pool of the N_pool lowest-potential
// solutions seeds p_relax·N_pool of the restarts with noise added, and the
// top N_derive guidance sets are returned.
package relax

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"analogfold/internal/ad"
	"analogfold/internal/fault"
	"analogfold/internal/gnn3d"
	"analogfold/internal/guidance"
	"analogfold/internal/hetgraph"
	"analogfold/internal/obs"
	"analogfold/internal/optim"
	"analogfold/internal/parallel"
	"analogfold/internal/tensor"
)

// MetricSigns orients each metric so that lower potential means better
// performance: offset↓, CMRR↑, bandwidth↑, gain↑, noise↓.
var MetricSigns = [gnn3d.NumMetrics]float64{+1, -1, -1, -1, +1}

// Config controls the relaxation.
type Config struct {
	CMax       float64 // feasible-region upper bound c_max
	BarrierR   float64 // barrier strength r (Eq. 8)
	NPool      int     // pool size N_pool
	PRelax     float64 // fraction of restarts seeded from the pool
	NDerive    int     // number of guidance sets returned N_derive
	Restarts   int     // total optimization starts
	MaxIter    int     // L-BFGS iterations per start
	NoiseSigma float64 // σ of the pool-restart noise
	Seed       int64
	WFoM       [gnn3d.NumMetrics]float64 // magnitude weights (default: all 1)

	// Workers bounds the goroutines evaluating one round's restarts
	// (0 → GOMAXPROCS). Results are bit-identical for any worker count:
	// every restart owns a private RNG seeded Seed+restartIndex and, for its
	// duration, a private tape-backed evaluator, and the elite pool is only
	// merged at round barriers, in restart-index order.
	Workers int
	// RoundSize is the number of restarts between pool-merge barriers
	// (default 4). Restarts within a round see the pool as it stood at the
	// round's start, so the round partitioning — not the worker count —
	// defines the algorithm.
	RoundSize int

	// NoPool disables the elite pool: every restart is an independent random
	// initialization (the ablation for Section 4.3's pool assistance).
	NoPool bool
	// UseGD replaces L-BFGS with plain gradient descent (fixed step with
	// backtracking), ablating the second-order relaxation.
	UseGD bool

	// MaxRetries bounds how many times a diverged restart (NaN/Inf potential,
	// stalled line search, model evaluation error) is rerun from a fresh
	// noisy seed before being dropped (default 2; negative disables retry).
	// Retry seeds are a pure function of (Seed, restart, attempt), so
	// recovery preserves worker-count invariance.
	MaxRetries int

	// DeferScoring skips the final candidate-scoring pass entirely:
	// Result.Predictions is left nil for the caller to fill later via
	// ScoreResults. The serving daemon uses it to stack the candidates of
	// several concurrent relaxations into one PredictBatch wave; Guides and
	// Potentials are unaffected.
	DeferScoring bool
}

func (c Config) withDefaults() Config {
	if c.CMax == 0 {
		c.CMax = guidance.DefaultCMax
	}
	if c.BarrierR == 0 {
		c.BarrierR = 5e-3
	}
	if c.NPool == 0 {
		c.NPool = 8
	}
	if c.PRelax == 0 {
		c.PRelax = 0.5
	}
	if c.NDerive == 0 {
		c.NDerive = 3
	}
	if c.Restarts == 0 {
		c.Restarts = 16
	}
	if c.MaxIter == 0 {
		c.MaxIter = 40
	}
	if c.NoiseSigma == 0 {
		c.NoiseSigma = 0.15
	}
	if c.RoundSize == 0 {
		c.RoundSize = 4
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	allZero := true
	for _, w := range c.WFoM {
		if w != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		// "Equal weighting for all terms in FoM led to the best results."
		for i := range c.WFoM {
			c.WFoM[i] = 1
		}
	}
	return c
}

// Result is a relaxation outcome.
type Result struct {
	// Guides are the top-N_derive guidance sets, best first.
	Guides []guidance.Set
	// Potentials are the corresponding V(C) values.
	Potentials []float64
	// Predictions are the model's denormalized metric predictions for each
	// returned guidance set (same order as Guides), scored after the final
	// clamp in one batched forward pass.
	Predictions [][gnn3d.NumMetrics]float64
	// Evals counts objective evaluations (forward+backward passes).
	Evals int

	// Retried counts restart attempts rerun after divergence, a stalled
	// line search or a model evaluation error.
	Retried int
	// Dropped counts restarts abandoned after the retry budget.
	Dropped int
	// Failures records the terminal fault of every dropped restart, for the
	// flow's DegradationReport.
	Failures []RestartFailure
}

// RestartFailure is one dropped restart's post-mortem.
type RestartFailure struct {
	Restart  int
	Attempts int
	Err      error
}

// Potential evaluates V(C) and ∂V/∂C for a guidance tensor on the model's
// transient autodiff path: the reference Optimize's tape-backed evaluator
// is pinned to, bit for bit. It runs on the frozen view, so the backward
// pass stops at C and never touches the model's weight gradients — concurrent
// calls on one model are safe.
func Potential(m *gnn3d.Model, g *hetgraph.Graph, cT *tensor.Tensor, cfg Config) (float64, *tensor.Tensor, error) {
	cfg = cfg.withDefaults()
	cv := ad.Leaf(cT, true)
	pred, err := m.Frozen().Forward(g, cv)
	if err != nil {
		return 0, nil, err
	}
	// w_FoM · f_θ: signed, weighted sum of the (normalized) predictions.
	w := tensor.New(gnn3d.NumMetrics, 1)
	for i := 0; i < gnn3d.NumMetrics; i++ {
		w.Data[i] = MetricSigns[i] * cfg.WFoM[i]
	}
	fom := ad.MatMul(pred, ad.Const(w)) // [1 × 1]

	// Interior-point barrier g(C).
	cmax := tensor.New(cT.Shape...)
	cmax.Fill(cfg.CMax)
	barrier := ad.Scale(
		ad.Add(ad.Sum(ad.Log(cv)), ad.Sum(ad.Log(ad.Sub(ad.Const(cmax), cv)))),
		-cfg.BarrierR,
	)
	v := ad.Add(fom, barrier)
	if err := ad.Backward(v); err != nil {
		return 0, nil, err
	}
	return v.Value.Data[0], cv.Grad, nil
}

// evaluator is one worker's tape-backed objective evaluator: an inference
// session (frozen weight view, persistent guidance leaf) plus the FoM weight
// and barrier-bound constants, all bound to one tape. After the first
// evaluation warms the tape, each V(C) + ∂V/∂C costs a graph replay instead
// of a graph rebuild. It constructs exactly the expression Potential builds —
// same ops in the same order — so every value and gradient is bit-identical
// to Potential, which TestEvaluatorMatchesPotential pins.
type evaluator struct {
	sess    *gnn3d.InferSession
	w, cmax *ad.Var
}

func newEvaluator(m *gnn3d.Model, g *hetgraph.Graph, cfg Config) *evaluator {
	sess := gnn3d.NewInferSession(m, g)
	tp := sess.Tape()
	w := tensor.New(gnn3d.NumMetrics, 1)
	for i := 0; i < gnn3d.NumMetrics; i++ {
		w.Data[i] = MetricSigns[i] * cfg.WFoM[i]
	}
	cmax := tensor.New(len(g.Circuit.Nets), 3)
	cmax.Fill(cfg.CMax)
	return &evaluator{sess: sess, w: tp.Const(w), cmax: tp.Const(cmax)}
}

// potential evaluates V(C) and ∂V/∂C on the session tape. The returned
// gradient tensor is owned by the session and only valid until the next
// evaluation; callers copy what they keep.
func (e *evaluator) potential(x []float64, cfg Config) (float64, *tensor.Tensor, error) {
	if err := e.sess.SetC(x); err != nil {
		return 0, nil, err
	}
	pred := e.sess.Forward()
	cv := e.sess.C()
	fom := ad.MatMul(pred, e.w) // [1 × 1]
	barrier := ad.Scale(
		ad.Add(ad.Sum(ad.Log(cv)), ad.Sum(ad.Log(ad.Sub(e.cmax, cv)))),
		-cfg.BarrierR,
	)
	v := ad.Add(fom, barrier)
	if err := ad.Backward(v); err != nil {
		return 0, nil, err
	}
	return v.Value.Data[0], cv.Grad, nil
}

// poolEntry pairs a solution with its potential.
type poolEntry struct {
	pot float64
	c   []float64
}

// restartOut is one restart's contribution, merged at the round barrier.
type restartOut struct {
	pot     float64
	x       []float64
	evals   int
	retries int
	// traj is the sampled potential trajectory (every SampleEvery-th finite
	// objective value, across all attempts). Collected thread-locally and only
	// when telemetry is attached; published at the round barrier.
	traj []float64
	err  error // terminal fault after the retry budget; nil on success
}

// Optimize runs the full pool-assisted relaxation. Rounds of RoundSize
// restarts execute concurrently on Workers goroutines; each restart owns a
// private RNG (Seed+restartIndex) and, for its duration, a tape-backed
// evaluator drawn from a pool, and the elite pool is merged at a barrier
// between rounds so the result is independent of the worker count.
//
// Failure model: a restart whose optimization diverges (NaN/Inf potential or
// iterate), stalls without ever reaching a finite point, or hits a model
// evaluation error is rerun from a fresh noisy seed up to MaxRetries times,
// then dropped and recorded in Result.Failures. Cancellation of ctx aborts
// the whole relaxation with a typed fault. Optimize errors only when every
// restart was dropped (kind fault.ErrExhausted, wrapping the first terminal
// fault) or no finite solution survived (fault.ErrInfeasible).
func Optimize(ctx context.Context, m *gnn3d.Model, g *hetgraph.Graph, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults()
	numNets := len(g.Circuit.Nets)
	dim := numNets * 3

	// Telemetry is observation-only: trajectories are sampled thread-locally
	// inside each restart and recorded at the round barriers, so enabling it
	// changes neither the optimization nor the merge order.
	tel := obs.FromContext(ctx)
	sampleEvery := tel.SampleEvery()

	// Each concurrent restart draws a tape-backed evaluator from a pool: a
	// frozen weight view shares the caller's trained tensors read-only (the
	// backward pass never touches non-differentiable weights), so workers need
	// no model clones and steady-state evaluations replay a recorded graph.
	sessions := &sync.Pool{New: func() any { return newEvaluator(m, g, cfg) }}

	res := &Result{}
	var pool []poolEntry
	insert := func(pot float64, x []float64) {
		if math.IsNaN(pot) || math.IsInf(pot, 0) {
			return
		}
		pool = append(pool, poolEntry{pot: pot, c: append([]float64(nil), x...)})
		sort.SliceStable(pool, func(a, b int) bool { return pool[a].pot < pool[b].pot })
		if len(pool) > cfg.NPool {
			pool = pool[:cfg.NPool]
		}
	}

	// runAttempt executes one optimization attempt of restart r. Attempt 0
	// reproduces the pre-recovery behavior exactly (same RNG stream, same
	// pool seeding); retries draw a fresh random initialization from a
	// decorrelated (Seed, restart, attempt) stream.
	runAttempt := func(r, attempt int, poolSnap []poolEntry, traj *[]float64) (optim.LBFGSResult, int, error) {
		var rng *rand.Rand
		if attempt == 0 {
			rng = rand.New(rand.NewSource(cfg.Seed + int64(r)))
		} else {
			rng = rand.New(rand.NewSource(parallel.SeedFor(cfg.Seed, (r+1)*131+attempt)))
		}
		var x0 []float64
		if attempt == 0 && !cfg.NoPool && len(poolSnap) >= cfg.NPool && rng.Float64() < cfg.PRelax {
			// Noisy restart from a pool member (Section 4.3).
			src := poolSnap[rng.Intn(len(poolSnap))]
			x0 = make([]float64, dim)
			for i, v := range src.c {
				x0[i] = clamp(v+rng.NormFloat64()*cfg.NoiseSigma, 0.02, cfg.CMax-0.02)
			}
		} else {
			gd := guidance.Sample(numNets, rng, cfg.CMax)
			x0 = gd.Flat()
		}

		ev := sessions.Get().(*evaluator)
		defer sessions.Put(ev)
		evals := 0
		var evalErr error // first model/divergence fault inside the line search
		obj := func(x []float64) (float64, []float64) {
			if err := ctx.Err(); err != nil {
				// Cancellation: poison the search so the optimizer winds down
				// in O(line-search) steps without another Forward pass.
				if evalErr == nil || !fault.IsTimeout(evalErr) {
					evalErr = fault.FromContext(fault.StageRelaxation, err).WithRestart(r)
				}
				return math.Inf(1), make([]float64, dim)
			}
			// Out-of-region points are +Inf: the Wolfe line search backs off.
			for _, v := range x {
				if v <= 0 || v >= cfg.CMax {
					return math.Inf(1), make([]float64, dim)
				}
			}
			f, grad, err := ev.potential(x, cfg)
			if err != nil {
				// Propagate a typed model fault into the retry path instead
				// of masking it as +Inf with a fake zero gradient.
				if evalErr == nil {
					evalErr = fault.Wrap(fault.StageRelaxation, fault.ErrModelEval, err, "").WithRestart(r)
				}
				return math.Inf(1), make([]float64, dim)
			}
			evals++
			if math.IsNaN(f) || anyNaN(grad.Data) {
				if evalErr == nil {
					evalErr = fault.New(fault.StageRelaxation, fault.ErrDiverged,
						"NaN potential or gradient at eval %d", evals).WithRestart(r)
				}
				return math.Inf(1), make([]float64, dim)
			}
			if tel.Enabled() && isFinite(f) && evals%sampleEvery == 0 {
				*traj = append(*traj, f)
			}
			return f, append([]float64(nil), grad.Data...)
		}
		var out optim.LBFGSResult
		if cfg.UseGD {
			out = gradientDescent(obj, x0, cfg.MaxIter)
		} else {
			out = optim.LBFGS(obj, x0, cfg.MaxIter, 8, 1e-7)
		}
		return out, evals, evalErr
	}

	runRestart := func(r int, poolSnap []poolEntry) restartOut {
		ro := restartOut{pot: math.Inf(1)}
		for attempt := 0; ; attempt++ {
			out, evals, evalErr := runAttempt(r, attempt, poolSnap, &ro.traj)
			ro.evals += evals
			switch {
			case evalErr != nil && fault.IsTimeout(evalErr):
				// Deadlines are terminal: retrying would fight the clock.
				ro.err = evalErr
				return ro
			case evalErr == nil && isFinite(out.F) && !anyNaN(out.X):
				ro.pot, ro.x, ro.err = out.F, out.X, nil
				return ro
			}
			// Diverged, stalled (never left +Inf) or model-eval fault: retry
			// with a fresh noisy seed under the bounded budget.
			var terminal error
			if evalErr != nil {
				terminal = evalErr
			} else {
				terminal = fault.New(fault.StageRelaxation, fault.ErrDiverged,
					"restart stalled at potential %g", out.F).WithRestart(r)
			}
			if attempt >= cfg.MaxRetries {
				ro.err = terminal
				return ro
			}
			ro.retries++
		}
	}

	for base := 0; base < cfg.Restarts; base += cfg.RoundSize {
		if err := ctx.Err(); err != nil {
			return nil, fault.FromContext(fault.StageRelaxation, err)
		}
		round := cfg.RoundSize
		if base+round > cfg.Restarts {
			round = cfg.Restarts - base
		}
		// Restarts in this round all see the pool as of the last barrier.
		poolSnap := append([]poolEntry(nil), pool...)
		outs := make([]restartOut, round)
		if err := parallel.ForEach(ctx, cfg.Workers, round, func(k int) error {
			outs[k] = runRestart(base+k, poolSnap)
			return nil
		}); err != nil {
			return nil, fault.FromContext(fault.StageRelaxation, err)
		}
		// Barrier: merge in restart-index order so the elite pool — and with
		// it every later round — is reproducible for any worker count. The
		// per-restart telemetry events ride the same ordered walk, so the
		// flight record is worker-count-invariant too.
		for k, o := range outs {
			res.Evals += o.evals
			res.Retried += o.retries
			if tel.Enabled() {
				args := []obs.Arg{
					{Key: "restart", Value: base + k}, {Key: "evals", Value: o.evals},
					{Key: "retries", Value: o.retries}, {Key: "dropped", Value: o.err != nil},
					{Key: "potential", Value: o.pot}, {Key: "trajectory", Value: o.traj},
				}
				if o.err != nil {
					args = args[:4] // a dropped restart has no potential or trajectory
				}
				obs.Event(ctx, "relax.restart", args...)
			}
			if o.err != nil {
				if fault.IsTimeout(o.err) {
					return nil, o.err
				}
				res.Dropped++
				res.Failures = append(res.Failures, RestartFailure{
					Restart: base + k, Attempts: o.retries + 1, Err: o.err,
				})
				continue
			}
			insert(o.pot, o.x)
		}
		if tel.Enabled() {
			args := []obs.Arg{{Key: "round", Value: base / cfg.RoundSize}, {Key: "pool_size", Value: len(pool)}}
			if len(pool) > 0 {
				args = append(args, obs.Arg{Key: "best_potential", Value: pool[0].pot})
			}
			obs.Event(ctx, "relax.round", args...)
		}
	}

	reg := tel.Registry()
	reg.Counter("analogfold_relax_evals_total").Add(int64(res.Evals))
	reg.Counter("analogfold_relax_retried_total").Add(int64(res.Retried))
	reg.Counter("analogfold_relax_dropped_total").Add(int64(res.Dropped))

	if res.Dropped == cfg.Restarts {
		return nil, fault.Wrap(fault.StageRelaxation, fault.ErrExhausted, res.Failures[0].Err,
			"all %d restarts dropped after %d retries", cfg.Restarts, res.Retried)
	}
	if len(pool) == 0 {
		return nil, fault.New(fault.StageRelaxation, fault.ErrInfeasible,
			"no feasible solution found in %d restarts", cfg.Restarts)
	}
	n := cfg.NDerive
	if n > len(pool) {
		n = len(pool)
	}
	for i := 0; i < n; i++ {
		gd, err := guidance.FromFlat(pool[i].c, cfg.CMax)
		if err != nil {
			return nil, err
		}
		res.Guides = append(res.Guides, gd.Clamp(0.02))
		res.Potentials = append(res.Potentials, pool[i].pot)
	}

	// Score the derived (clamped) guidance sets with the model: all N_derive
	// candidates ride one stacked PredictBatch.
	if cfg.DeferScoring {
		return res, nil
	}
	if _, err := score(ctx, m, g, []*Result{res}); err != nil {
		return nil, err
	}
	return res, nil
}

// ScoreResults fills Predictions for several deferred relaxation results
// (Config.DeferScoring) by stacking every result's candidate guidance sets
// into one PredictBatch call. Because ForwardBatch is row-independent, each
// row is bit-identical to scoring that result alone — so wave composition
// cannot change any individual response. Beyond Optimize's scoring counters
// it counts waves, which serving tests pin against their wave count ("one
// PredictBatch per wave").
func ScoreResults(ctx context.Context, m *gnn3d.Model, g *hetgraph.Graph, rs []*Result) error {
	n, err := score(ctx, m, g, rs)
	if err != nil {
		return err
	}
	if n > 0 {
		obs.FromContext(ctx).Registry().Counter("analogfold_relax_score_waves_total").Inc()
	}
	return nil
}

// score is the one candidate scorer: a single PredictBatch over the guidance
// sets of every result in rs, in order. It returns how many candidates it
// scored. Span, counter and StageScore credit sit outside the restart loop,
// so the hot path stays untouched and nothing allocates when telemetry is
// disabled.
func score(ctx context.Context, m *gnn3d.Model, g *hetgraph.Graph, rs []*Result) (int, error) {
	var cs []*tensor.Tensor
	for _, r := range rs {
		for _, gd := range r.Guides {
			cs = append(cs, tensor.FromSlice(gd.Flat(), len(gd.PerNet), 3))
		}
	}
	if len(cs) == 0 {
		return 0, nil
	}
	_, span := obs.StartSpan(ctx, "relax.candidates")
	defer span.End()
	scoreStart := time.Now()
	defer func() { obs.StagesFrom(ctx).Add(obs.StageScore, time.Since(scoreStart)) }()
	span.Arg("candidates", len(cs)).Arg("results", len(rs))
	preds, err := m.PredictBatch(g, cs)
	if err != nil {
		return 0, fault.Wrap(fault.StageRelaxation, fault.ErrModelEval, err, "candidate scoring")
	}
	k := 0
	for _, r := range rs {
		r.Predictions = preds[k : k+len(r.Guides) : k+len(r.Guides)]
		k += len(r.Guides)
	}
	obs.FromContext(ctx).Registry().Counter("analogfold_relax_candidates_batched_total").Add(int64(len(cs)))
	return len(cs), nil
}

// isFinite reports a usable optimization outcome (finite, non-NaN).
func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// anyNaN scans a vector for NaN contamination.
func anyNaN(xs []float64) bool {
	for _, v := range xs {
		if math.IsNaN(v) {
			return true
		}
	}
	return false
}

// gradientDescent is the UseGD ablation optimizer: steepest descent with a
// simple backtracking line search.
func gradientDescent(obj optim.Objective, x0 []float64, maxIter int) optim.LBFGSResult {
	x := append([]float64(nil), x0...)
	f, g := obj(x)
	res := optim.LBFGSResult{X: x, F: f}
	step := 0.1
	for it := 0; it < maxIter; it++ {
		res.Iterations = it + 1
		ok := false
		for ls := 0; ls < 20; ls++ {
			xn := make([]float64, len(x))
			for i := range x {
				xn[i] = x[i] - step*g[i]
			}
			fn, gn := obj(xn)
			if !math.IsNaN(fn) && !math.IsInf(fn, 0) && fn < f {
				x, f, g = xn, fn, gn
				step *= 1.3
				ok = true
				break
			}
			step *= 0.5
		}
		if !ok {
			break
		}
	}
	res.X = x
	res.F = f
	return res
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
