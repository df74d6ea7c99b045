package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"analogfold/internal/ad"
	"analogfold/internal/circuit"
	"analogfold/internal/drc"
	"analogfold/internal/extract"
	"analogfold/internal/gnn3d"
	"analogfold/internal/guidance"
	"analogfold/internal/lvs"
	"analogfold/internal/route"
	"analogfold/internal/tensor"
)

// probeKeys suffix the per-circuit probe metrics: the small and the large
// benchmark.
var probeKeys = [2]string{"ota1", "ota3"}

// labelProbe repeats what labeling one dataset sample does, one layer at a
// time: route sampled guidance sets (and one uniform set) on clones of each
// benchmark's placed grid, extract parasitics and run MNA. Every routed
// layout must be DRC and LVS clean.
func (r *runner) labelProbe(ctx context.Context, benches []string, draws int) error {
	for bi, bench := range benches {
		f, _, err := r.flow(bench)
		if err != nil {
			return err
		}
		key := probeKeys[bi]
		nets := len(f.Circuit.Nets)
		rng := rand.New(rand.NewSource(opSeed(r.seed, streamProbe, bi)))
		var routeMS, allocs, extractMS, evalMS []float64
		iters := 0
		for d := 0; d <= draws; d++ {
			name, gd := "probe.route", guidance.Uniform(nets)
			if d < draws {
				gd = guidance.Sample(nets, rng, guidance.DefaultCMax)
			} else {
				name += ".uniform"
			}
			g := f.Grid.Clone()
			m0 := memStats()
			sctx, end := r.span(ctx, name)
			t0 := time.Now()
			res, err := route.RouteCtx(sctx, g, gd, f.Opts.RouteCfg)
			dt := time.Since(t0)
			end()
			m1 := memStats()
			if err != nil {
				return fmt.Errorf("label probe %s draw %d: %w", bench, d, err)
			}
			if vs := drc.Check(g, res); len(vs) > 0 {
				r.problem("label probe %s draw %d: %d DRC violations, first %+v", bench, d, len(vs), vs[0])
			}
			if rep := lvs.Check(g, res); !rep.Clean() {
				r.problem("label probe %s draw %d: LVS %d/%d nets match", bench, d, rep.NetsOK, rep.NetsTotal)
			}
			_, end = r.span(ctx, "probe.extract")
			t0 = time.Now()
			par := extract.Extract(g, res)
			ext := time.Since(t0)
			end()
			_, end = r.span(ctx, "probe.evaluate")
			t0 = time.Now()
			m, err := circuit.Evaluate(f.Circuit, par)
			ev := time.Since(t0)
			end()
			if err != nil {
				return fmt.Errorf("label probe %s draw %d: %w", bench, d, err)
			}
			r.mu.Lock()
			r.checkMetricsLocked(fmt.Sprintf("label probe %s draw %d", bench, d), m, res.WirelengthNm)
			r.mu.Unlock()
			if d == draws {
				r.layer["route.uniform_ms."+key] = ms(dt)
				continue
			}
			routeMS = append(routeMS, ms(dt))
			allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
			extractMS = append(extractMS, ms(ext))
			evalMS = append(evalMS, ms(ev))
			iters += res.Iterations
		}
		r.layer["route.label_ms."+key] = median(routeMS)
		r.layer["route.allocs."+key] = median(allocs)
		r.layer["route.iters."+key] = float64(iters)
		r.layer["extract.ms."+key] = median(extractMS)
		r.layer["circuit.eval_ms."+key] = median(evalMS)
	}
	return nil
}

// modelProbe times the learning layers on the served checkpoint: the
// relaxation at the served configuration, one session forward+backward
// cycle, candidate scoring and the kernel under them.
func (r *runner) modelProbe(ctx context.Context) error {
	m := r.st.model
	rng := rand.New(rand.NewSource(opSeed(r.seed, streamProbe, len(probeKeys))))
	for bi, bench := range []string{r.sc.small, r.sc.large} {
		f, hg, err := r.flow(bench)
		if err != nil {
			return err
		}
		key := probeKeys[bi]
		var optMS []float64
		for k := 0; k < r.sc.relaxReps; k++ {
			o := f.Opts
			o.Seed = opSeed(r.seed, streamProbe, 100+k)
			sctx, end := r.span(ctx, "probe.relax")
			t0 := time.Now()
			_, err := f.WithOptions(o).DeriveGuidanceWarm(sctx, m, hg)
			optMS = append(optMS, ms(time.Since(t0)))
			end()
			if err != nil {
				return fmt.Errorf("model probe %s: %w", bench, err)
			}
		}
		r.layer["relax.optimize_ms."+key] = median(optMS)

		nets := len(hg.Circuit.Nets)
		cs := make([]*tensor.Tensor, 4)
		for i := range cs {
			cs[i] = tensor.FromSlice(guidance.Sample(nets, rng, guidance.DefaultCMax).Flat(), nets, 3)
		}
		sess := gnn3d.NewInferSession(m, hg)
		cycle := func(i int) error {
			if err := sess.SetC(cs[i%len(cs)].Data); err != nil {
				return err
			}
			return ad.Backward(ad.Sum(sess.Forward()))
		}
		// The first cycle records the tape, the second settles its scratch.
		for i := 0; i < 2; i++ {
			if err := cycle(i); err != nil {
				return fmt.Errorf("model probe %s: %w", bench, err)
			}
		}
		_, end := r.span(ctx, "probe.session_fb")
		m0 := memStats()
		t0 := time.Now()
		for i := 0; i < r.sc.probeReps; i++ {
			if err := cycle(i); err != nil {
				return fmt.Errorf("model probe %s: %w", bench, err)
			}
		}
		dt := time.Since(t0)
		m1 := memStats()
		end()
		r.layer["gnn3d.session_fb_ms."+key] = ms(dt) / float64(r.sc.probeReps)
		if bi == 0 {
			r.layer["gnn3d.session_fb_allocs"] = float64(m1.Mallocs-m0.Mallocs) / float64(r.sc.probeReps)

			var predMS []float64
			for i := 0; i < r.sc.probeReps; i++ {
				_, end := r.span(ctx, "probe.predict_batch")
				t0 := time.Now()
				_, err := m.PredictBatch(hg, cs)
				predMS = append(predMS, ms(time.Since(t0)))
				end()
				if err != nil {
					return fmt.Errorf("model probe %s: %w", bench, err)
				}
			}
			r.layer["gnn3d.predict_batch_ms"] = median(predMS)
		}
	}

	// A dense product of a session forward on the large benchmark:
	// [access points × hidden] · [hidden × hidden].
	_, hg, err := r.flow(r.sc.large)
	if err != nil {
		return err
	}
	rows, h := hg.APFeat.Shape[0], m.Cfg.Hidden
	a, b, out := tensor.New(rows, h), tensor.New(h, h), tensor.New(rows, h)
	for _, t := range []*tensor.Tensor{a, b} {
		for i := range t.Data {
			t.Data[i] = rng.NormFloat64()
		}
	}
	reps := 10 * r.sc.probeReps
	tensor.MatMulInto(out, a, b)
	_, end := r.span(ctx, "probe.matmul")
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		tensor.MatMulInto(out, a, b)
	}
	dt := time.Since(t0)
	end()
	r.layer["tensor.matmul_ms"] = ms(dt) / float64(reps)
	r.layer["tensor.matmul_mflop"] = 2 * float64(rows) * float64(h) * float64(h) / 1e6
	return nil
}
