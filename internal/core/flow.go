// Package core orchestrates the complete AnalogFold flow of the paper
// (Figure 2): placement → routing-grid construction → database construction
// (guidance-labeled routing samples) → 3DGNN training → pool-assisted
// potential relaxation → guided detailed routing → post-layout evaluation.
// It also drives the two baselines of Table 2 — MagicalRoute [16] (the same
// detailed router, unguided) and GeniusRoute [11] (VAE imitation guidance) —
// under identical conditions.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"time"

	"analogfold/internal/circuit"
	"analogfold/internal/dataset"
	"analogfold/internal/extract"
	"analogfold/internal/fault"
	"analogfold/internal/fault/inject"
	"analogfold/internal/gnn3d"
	"analogfold/internal/grid"
	"analogfold/internal/guidance"
	"analogfold/internal/hetgraph"
	"analogfold/internal/netlist"
	"analogfold/internal/obs"
	"analogfold/internal/parallel"
	"analogfold/internal/place"
	"analogfold/internal/relax"
	"analogfold/internal/route"
	"analogfold/internal/tech"
	"analogfold/internal/vae"
)

// Method identifies a routing flow in Table 2.
type Method string

// The compared methods.
const (
	MethodSchematic  Method = "Schematic"
	MethodMagical    Method = "MagicalRoute"
	MethodGenius     Method = "GeniusRoute"
	MethodAnalogFold Method = "AnalogFold"
)

// Options sizes the flow. Zero values select experiment defaults scaled for
// minutes-long runs; the paper's full-scale settings (2000 samples) are a
// matter of turning these up.
type Options struct {
	Samples       int // database size per placement
	TrainEpochs   int
	RelaxRestarts int
	NDerive       int
	// Workers bounds every parallel fan-out of the flow: dataset labeling,
	// minibatch gradients, relaxation restarts, candidate routing and the
	// per-method benchmark evaluation (0 → GOMAXPROCS). All paths are
	// deterministic in the worker count.
	Workers    int
	Seed       int64
	PlaceIters int
	GNN        gnn3d.Config
	RouteCfg   route.Config
	VAECorpus  int // sibling placements for the GeniusRoute corpus
	VAEEpochs  int

	// StageTimeout bounds each pipeline stage (database construction, 3DGNN
	// training, relaxation, routing) independently; when a stage overruns it,
	// the run aborts with a typed fault.ErrTimeout attributed to that stage.
	// TotalTimeout bounds a whole benchmark run (applied by RunBenchmark and
	// the CLI). Zero disables the respective deadline.
	StageTimeout time.Duration
	TotalTimeout time.Duration
}

// trainBatch is the 3DGNN minibatch size; the per-sample gradients of a
// batch are computed in parallel on Options.Workers goroutines.
const trainBatch = 4

// datasetConfig returns the corpus settings of the learning stack: the cold
// flow, the cached and distributed corpus (LoadOrGenerateDatasetExec) and the
// ablation all label the same samples.
func (o Options) datasetConfig() dataset.Config {
	return dataset.Config{
		Samples: o.Samples, Workers: o.Workers, Seed: o.Seed,
		RouteCfg: o.RouteCfg, IncludeUniform: true,
	}
}

// gnnConfig returns the 3DGNN architecture every path trains, seeded with
// the flow's seed; a checkpoint's provenance stamp is checked against it.
func (o Options) gnnConfig() gnn3d.Config {
	c := o.GNN
	c.Seed = o.Seed
	return c
}

// relaxConfig returns the potential-relaxation settings every AnalogFold
// path derives guidance with: the cold and warm flows, the daemon's
// /v1/guidance, the rendered figures and the ablation (with N_derive 1).
// One constructor keeps them equal.
func (o Options) relaxConfig() relax.Config {
	return relax.Config{
		Restarts: o.RelaxRestarts, NDerive: o.NDerive, Seed: o.Seed,
		MaxIter: 25, Workers: o.Workers,
	}
}

// fitModel trains a fresh 3DGNN of architecture gcfg, stamped with the
// flow's circuit, on samples with the flow's one training schedule. Every
// path that trains calls it, so for the same options the cold flow, the
// checkpoint, the figures and the ablation's full variant hold the same
// weights bit for bit.
func (f *Flow) fitModel(ctx context.Context, hg *hetgraph.Graph, samples []gnn3d.Sample, gcfg gnn3d.Config) (*gnn3d.Model, *gnn3d.TrainReport, error) {
	m := gnn3d.New(gcfg)
	m.Circuit = f.Circuit.Name
	rep, err := m.Fit(ctx, hg, samples, gnn3d.TrainConfig{
		Epochs: f.Opts.TrainEpochs, Seed: f.Opts.Seed,
		BatchSize: trainBatch, Workers: f.Opts.Workers,
	})
	if err != nil {
		return nil, nil, err
	}
	return m, rep, nil
}

// relaxOptimize is relax.Optimize behind a variable, so tests can observe
// the settings each path relaxes with.
var relaxOptimize = relax.Optimize

func (o Options) withDefaults() Options {
	if o.Samples == 0 {
		o.Samples = 220
	}
	if o.TrainEpochs == 0 {
		o.TrainEpochs = 60
	}
	if o.RelaxRestarts == 0 {
		o.RelaxRestarts = 10
	}
	if o.NDerive == 0 {
		o.NDerive = 4
	}
	if o.PlaceIters == 0 {
		o.PlaceIters = 3000
	}
	if o.VAECorpus == 0 {
		o.VAECorpus = 5
	}
	if o.VAEEpochs == 0 {
		o.VAEEpochs = 40
	}
	return o
}

// Whether a stage runs under a deadline of its own (see Flow.stage).
const (
	bounded   = true
	unbounded = false
)

// stage runs fn as the flow stage st. It is the one place where a stage of
// this package is named, bounded, timed and attributed:
//   - a telemetry span and a pprof "phase" label named st cover fn and every
//     goroutine it spawns, so -trace-out renders the Figure-5 timeline and
//     -cpuprofile attributes samples to the stages (with no telemetry
//     attached the span is a nil no-op);
//   - a bounded stage runs fn under Opts.StageTimeout, when set, after the
//     injected stage latency (chaos builds only), which is how the harness
//     provokes stage overruns deterministically; an unbounded stage runs
//     under its caller's deadline;
//   - the elapsed time, less that of the stages nested inside, goes to st's
//     StageTimes field in t;
//   - relaxation and routing credit StageRelax and StageRoute on the
//     context's request StageBreakdown, which is how serving requests
//     attribute relax and route time without the handlers instrumenting core
//     internals. Scoring inside the stage (non-deferred relax.Optimize scores
//     its candidates before returning) credits StageScore itself, so the
//     stage keeps only the rest of its time and the stages never overlap.
//
// It returns fn's error.
func (f *Flow) stage(ctx context.Context, st fault.Stage, bound bool, t *StageTimes, fn func(context.Context) error) error {
	ctx, span := obs.StartSpan(ctx, string(st))
	defer span.End()
	stages := obs.StagesFrom(ctx)
	before, scored, start := t.Total(), stages.Get(obs.StageScore), time.Now()
	if bound {
		var cancel context.CancelFunc
		if f.Opts.StageTimeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, f.Opts.StageTimeout)
		} else {
			ctx, cancel = context.WithCancel(ctx)
		}
		defer cancel()
		inject.Sleep(inject.StageLatency)
	}
	var err error
	pprof.Do(ctx, pprof.Labels("phase", string(st)), func(ctx context.Context) { err = fn(ctx) })
	d := time.Since(start)
	*t.field(st) += d - (t.Total() - before)
	switch st {
	case fault.StageRelaxation:
		stages.Add(obs.StageRelax, d-(stages.Get(obs.StageScore)-scored))
	case fault.StageRouting:
		stages.Add(obs.StageRoute, d-(stages.Get(obs.StageScore)-scored))
	}
	return err
}

// terminalFault reports whether err carries a cancellation or deadline: those
// must abort the flow — retrying or degrading would fight the clock — while
// every other fault is a candidate for the degradation ladder.
func terminalFault(err error) bool {
	return err != nil && (fault.IsTimeout(err) ||
		errors.Is(err, fault.ErrCanceled) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded))
}

// StageTimes records the Figure-5 runtime breakdown.
type StageTimes struct {
	Placement         time.Duration
	ConstructDatabase time.Duration
	ModelTraining     time.Duration
	GuideGeneration   time.Duration // feature extraction + inference + relaxation
	GuidedRouting     time.Duration
}

// Total sums all stages.
func (s StageTimes) Total() time.Duration {
	return s.Placement + s.ConstructDatabase + s.ModelTraining + s.GuideGeneration + s.GuidedRouting
}

// field returns the field that stage st's time goes to.
func (s *StageTimes) field(st fault.Stage) *time.Duration {
	switch st {
	case fault.StagePlacement:
		return &s.Placement
	case fault.StageDatabase:
		return &s.ConstructDatabase
	case fault.StageTraining:
		return &s.ModelTraining
	case fault.StageRelaxation, fault.StageGuidance:
		return &s.GuideGeneration
	case fault.StageRouting:
		return &s.GuidedRouting
	}
	panic("core: no StageTimes field for stage " + string(st))
}

// Outcome is one method's result on one benchmark.
type Outcome struct {
	Method       Method
	Metrics      circuit.Metrics
	Times        StageTimes
	WirelengthNm int
	Vias         int
	// Degradation is RunAnalogFold's recovery account (nil for the baseline
	// methods). A fault-free run reports FinalRung == RungElite with no
	// events; see DegradationReport.
	Degradation *DegradationReport
}

// Runtime is the Table-2 runtime: guidance generation plus routing.
func (o *Outcome) Runtime() time.Duration {
	return o.Times.GuideGeneration + o.Times.GuidedRouting
}

// Flow holds the per-benchmark state shared by all methods.
type Flow struct {
	Circuit *netlist.Circuit
	Profile place.Profile
	Opts    Options

	Placement *place.Placement
	Grid      *grid.Grid
	placeTime time.Duration
}

// NewFlow places the circuit under the given net-weight profile and builds
// the routing grid.
func NewFlow(c *netlist.Circuit, profile place.Profile, opts Options) (*Flow, error) {
	return NewFlowCtx(context.Background(), c, profile, opts)
}

// NewFlowCtx is NewFlow with a context, so the placement stage joins any
// telemetry span tree carried by ctx (the remaining stages are spanned inside
// the Run* methods). Placement itself does not observe cancellation, so it
// runs unbounded.
func NewFlowCtx(ctx context.Context, c *netlist.Circuit, profile place.Profile, opts Options) (*Flow, error) {
	f := &Flow{Circuit: c, Profile: profile, Opts: opts.withDefaults()}
	var t StageTimes
	err := f.stage(ctx, fault.StagePlacement, unbounded, &t, func(context.Context) (err error) {
		f.Placement, err = place.Place(c, place.Config{
			Profile: profile, Seed: f.Opts.Seed, Iterations: f.Opts.PlaceIters,
		})
		if err == nil {
			f.Grid, err = grid.Build(f.Placement, tech.Sim40())
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	f.placeTime = t.Placement
	return f, nil
}

// Name returns the Table-2 benchmark id, e.g. "OTA1-A".
func (f *Flow) Name() string { return fmt.Sprintf("%s-%s", f.Circuit.Name, f.Profile) }

// Schematic evaluates the parasitic-free reference.
func (f *Flow) Schematic() (circuit.Metrics, error) {
	return circuit.Evaluate(f.Circuit, nil)
}

// evaluateRouted extracts and simulates one routed solution.
func (f *Flow) evaluateRouted(res *route.Result) (circuit.Metrics, error) {
	par := extract.Extract(f.Grid, res)
	return circuit.Evaluate(f.Circuit, par)
}

// RunMagical runs the unguided baseline router.
func (f *Flow) RunMagical(ctx context.Context) (*Outcome, error) {
	return f.routeBaseline(ctx, MethodMagical, guidance.Uniform(len(f.Circuit.Nets)), StageTimes{Placement: f.placeTime})
}

// RunGenius runs the GeniusRoute baseline end to end.
func (f *Flow) RunGenius(ctx context.Context) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	t := StageTimes{Placement: f.placeTime}
	gd, err := f.geniusGuidance(ctx, &t)
	if err != nil {
		return nil, err
	}
	return f.routeBaseline(ctx, MethodGenius, gd, t)
}

// routeBaseline is the back half of both baselines: it routes gd as Route
// does, timed into t, and evaluates the result. t holds the method's earlier
// stage times.
func (f *Flow) routeBaseline(ctx context.Context, method Method, gd guidance.Set, t StageTimes) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res, err := f.routeStage(ctx, gd, &t)
	if err != nil {
		return nil, fmt.Errorf("core: %s route: %w", method, err)
	}
	m, err := f.evaluateRouted(res)
	if err != nil {
		return nil, err
	}
	return &Outcome{
		Method: method, Metrics: m, Times: t,
		WirelengthNm: res.WirelengthNm, Vias: res.Vias,
	}, nil
}

// geniusGuidance builds the GeniusRoute imitation guidance: a VAE trained on
// routed sibling placements (substitute for the original's manual-layout
// corpus; see package vae) decodes a 2D wire-density map that is converted to
// per-net guidance. The whole of it is one bounded guide-generation stage;
// the corpus and the VAE training are stages nested under its deadline, so t
// receives the corpus, training and inference times separately.
func (f *Flow) geniusGuidance(ctx context.Context, t *StageTimes) (gd guidance.Set, err error) {
	o := f.Opts
	err = f.stage(ctx, fault.StageGuidance, bounded, t, func(ctx context.Context) error {
		var pairs []vae.Pair
		err := f.stage(ctx, fault.StageDatabase, unbounded, t, func(ctx context.Context) (err error) {
			pairs, err = f.geniusCorpus(ctx)
			return err
		})
		if err != nil {
			return err
		}
		var model *vae.Model
		err = f.stage(ctx, fault.StageTraining, unbounded, t, func(context.Context) error {
			model = vae.New(8, o.Seed)
			if _, err := model.Fit(pairs, vae.TrainConfig{Epochs: o.VAEEpochs, Seed: o.Seed}); err != nil {
				return fmt.Errorf("core: genius: %w", err)
			}
			return nil
		})
		if err != nil {
			return err
		}
		gd = model.GuidanceFromMap(f.Grid, model.PredictMap(f.Grid))
		return nil
	})
	return gd, err
}

// geniusCorpus places, grids and routes (with uniform guidance) the VAE's
// training corpus of sibling placements.
func (f *Flow) geniusCorpus(ctx context.Context) ([]vae.Pair, error) {
	o := f.Opts
	var pairs []vae.Pair
	for k := 0; k < o.VAECorpus; k++ {
		if err := ctx.Err(); err != nil {
			return nil, fault.FromContext(fault.StageGuidance, err)
		}
		p, err := place.Place(f.Circuit, place.Config{
			Profile: f.Profile, Seed: o.Seed + int64(100+k), Iterations: o.PlaceIters / 2,
		})
		if err != nil {
			return nil, fmt.Errorf("core: genius corpus: %w", err)
		}
		g, err := grid.Build(p, tech.Sim40())
		if err != nil {
			return nil, fmt.Errorf("core: genius corpus: %w", err)
		}
		res, err := route.RouteCtx(ctx, g, guidance.Uniform(len(f.Circuit.Nets)), o.RouteCfg)
		if err != nil {
			return nil, fmt.Errorf("core: genius corpus: %w", err)
		}
		pairs = append(pairs, vae.Pair{Pins: vae.RasterizePins(g), Wires: vae.RasterizeWires(g, res)})
	}
	return pairs, nil
}

// RunAnalogFold runs the full proposed flow. Every stage fans out over
// Opts.Workers goroutines and is tagged with a pprof "phase" label for the
// profiling flags of cmd/analogfold.
//
// Failure model: cancellation and stage deadlines abort with a typed fault;
// every other stage failure degrades instead of aborting, walking the ladder
// elite guidance → uniform guidance → unguided MagicalRoute baseline so that
// a routed result is always produced. The recovery path is recorded in the
// returned Outcome.Degradation.
func (f *Flow) RunAnalogFold(ctx context.Context) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := f.Opts
	report := &DegradationReport{FinalRung: RungElite}
	t := StageTimes{Placement: f.placeTime}

	// Construct database: guidance-labeled routing samples.
	var ds *dataset.Dataset
	err := f.stage(ctx, fault.StageDatabase, bounded, &t, func(ctx context.Context) (err error) {
		ds, err = dataset.Generate(ctx, f.Grid, o.datasetConfig())
		return err
	})
	if terminalFault(err) {
		return nil, fmt.Errorf("core: analogfold: %w", err)
	}
	if err != nil {
		report.record(fault.StageDatabase, err, "database construction failed; skipping learning stack")
		ds = nil
	}

	// Heterogeneous graph + model training. A failed graph build or a
	// diverged or failed fit drops the model: the flow continues to the
	// unguided rung rather than aborting.
	var hg *hetgraph.Graph
	var model *gnn3d.Model
	if ds != nil {
		err = f.stage(ctx, fault.StageTraining, bounded, &t, func(ctx context.Context) (err error) {
			if hg, err = f.BuildHetGraph(); err == nil {
				model, _, err = f.fitModel(ctx, hg, ds.Samples(), o.gnnConfig())
			}
			return err
		})
		if terminalFault(err) {
			return nil, fmt.Errorf("core: analogfold: %w", err)
		}
		if err != nil {
			report.record(fault.StageTraining, err, "3DGNN training failed; dropping model")
		}
	}
	return f.relaxAndRoute(ctx, model, hg, report, t)
}

// relaxAndRoute is the post-training half of the AnalogFold flow: potential
// relaxation over model (when non-nil) followed by the guided-routing ladder.
// It is shared by the cold path (RunAnalogFold, which just trained model) and
// the warm serving path (RunAnalogFoldWarm, which reuses a loaded checkpoint
// across requests). t holds the earlier stage times; the outcome carries them
// plus relaxation and routing, and report. The grid is read-only after
// NewFlow and every route takes its own pooled scratch, so concurrent callers
// may share one Flow and one Model.
func (f *Flow) relaxAndRoute(ctx context.Context, model *gnn3d.Model, hg *hetgraph.Graph, report *DegradationReport, t StageTimes) (*Outcome, error) {
	// Guidance generation: potential relaxation over the trained model.
	var rres *relax.Result
	if model != nil {
		err := f.stage(ctx, fault.StageRelaxation, bounded, &t, func(ctx context.Context) (err error) {
			rres, err = relaxOptimize(ctx, model, hg, f.Opts.relaxConfig())
			return err
		})
		if terminalFault(err) {
			return nil, fmt.Errorf("core: analogfold: %w", err)
		}
		if err != nil {
			report.record(fault.StageRelaxation, err, "relaxation failed; falling back to uniform guidance")
			rres = nil
		} else {
			report.RelaxRetried = rres.Retried
			report.RelaxDropped = rres.Dropped
		}
	}

	var best *Outcome
	err := f.stage(ctx, fault.StageRouting, bounded, &t, func(ctx context.Context) (err error) {
		best, err = f.routeLadder(ctx, model, rres, report)
		return err
	})
	if err != nil {
		return nil, err
	}
	best.Times = t
	best.Degradation = report
	return best, nil
}

// routeLadder is the guided-routing stage: route every derived guidance set
// concurrently on the flow's read-only grid and keep the best measured FoM
// (the model's normalization makes the FoM scale-free). Per-candidate
// failures step down the ladder — next elite, then uniform guidance — and the
// winner is chosen scanning in guidance order so ties resolve the same way
// for any worker count.
func (f *Flow) routeLadder(ctx context.Context, model *gnn3d.Model, rres *relax.Result, report *DegradationReport) (*Outcome, error) {
	o := f.Opts
	type candidate struct {
		ok           bool
		err          error
		metrics      circuit.Metrics
		fom          float64
		wirelengthNm int
		vias         int
	}
	var best *Outcome
	if rres != nil {
		cands, err := parallel.Map(ctx, o.Workers, len(rres.Guides), func(i int) (candidate, error) {
			res, rerr := route.RouteCtx(ctx, f.Grid, rres.Guides[i], o.RouteCfg)
			if rerr != nil {
				if terminalFault(rerr) {
					return candidate{}, rerr
				}
				return candidate{err: rerr}, nil
			}
			m, merr := f.evaluateRouted(res)
			if merr != nil {
				return candidate{err: merr}, nil
			}
			return candidate{
				ok: true, metrics: m, fom: scalarFoM(model, m),
				wirelengthNm: res.WirelengthNm, vias: res.Vias,
			}, nil
		})
		if err != nil {
			return nil, fmt.Errorf("core: analogfold: %w", err)
		}
		report.CandidatesTried = len(cands)
		var bestFoM float64
		for i, c := range cands {
			if !c.ok {
				report.CandidatesFailed++
				if c.err != nil {
					report.record(fault.StageRouting, c.err, "elite candidate %d failed; trying next", i)
				}
				continue
			}
			if best == nil || c.fom < bestFoM {
				bestFoM = c.fom
				best = &Outcome{
					Method: MethodAnalogFold, Metrics: c.metrics,
					WirelengthNm: c.wirelengthNm, Vias: c.vias,
				}
			}
		}
	}
	if best != nil {
		return best, nil
	}

	// Ladder bottom: no elite routed (or no guidance at all). Route with
	// uniform guidance — with a trained model this is the "uniform" rung;
	// with the learning stack gone it is exactly the MagicalRoute baseline.
	rung := RungMagical
	if model != nil {
		rung = RungUniform
		report.record(fault.StageRouting, nil, "no elite candidate routed; degrading to uniform guidance")
	} else {
		report.record(fault.StageRouting, nil, "learning stack unavailable; degrading to MagicalRoute baseline")
	}
	res, err := route.RouteCtx(ctx, f.Grid, guidance.Uniform(len(f.Circuit.Nets)), o.RouteCfg)
	if err != nil {
		// The unguided baseline is the last rung; its failure is the
		// flow's failure, typed and attributed.
		if terminalFault(err) {
			return nil, fmt.Errorf("core: analogfold: %w", err)
		}
		return nil, fault.Wrap(fault.StageRouting, fault.ErrRouteFailed, err,
			"core: analogfold: degradation ladder exhausted")
	}
	m, err := f.evaluateRouted(res)
	if err != nil {
		return nil, fault.Wrap(fault.StageEvaluation, fault.ErrRouteFailed, err,
			"core: analogfold: fallback evaluation failed")
	}
	report.FinalRung = rung
	return &Outcome{
		Method: MethodAnalogFold, Metrics: m,
		WirelengthNm: res.WirelengthNm, Vias: res.Vias,
	}, nil
}

// scalarFoM folds the five metrics into one lower-is-better scalar using the
// model's target normalization and the relaxation's metric signs.
func scalarFoM(m *gnn3d.Model, mt circuit.Metrics) float64 {
	y := [gnn3d.NumMetrics]float64{mt.OffsetUV, mt.CMRRdB, mt.BandwidthMHz, mt.GainDB, mt.NoiseUVrms}
	yn := m.Normalize(y)
	s := 0.0
	for i := range yn {
		s += relax.MetricSigns[i] * yn[i]
	}
	return s
}
