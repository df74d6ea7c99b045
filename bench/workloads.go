package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"analogfold/internal/circuit"
	"analogfold/internal/core"
	"analogfold/internal/obs"
	"analogfold/internal/serve"
)

// workloads maps each workload name to the function that runs its measured
// window. README.md records why each one exists.
var workloads = map[string]func(*runner, context.Context) error{
	"flow_cold":     (*runner).flowCold,
	"guidance_open": (*runner).guidanceOpen,
	"route_closed":  (*runner).routeClosed,
}

const (
	// openCycle: every 5th guidance_open request goes to the large
	// benchmark, and a run sends whole cycles, so every run has the same mix.
	openCycle = 5
	// closedCallers is the client count of the serving closed loops (the
	// host's cores).
	closedCallers = 2
	// zipfS is the skew of the hit probe's seed popularity.
	zipfS = 1.2
	// maxUnattributedPct bounds the share of a cold flow's wall time that its
	// Figure-5 stages leave unaccounted for.
	maxUnattributedPct = 5
)

// flowCold runs complete cold AnalogFold flows (placement, database, 3DGNN
// training, relaxation, guided routing) on the small benchmark, one after
// another. The placement is the benchmark's own; the learning seeds come
// from --seed.
func (r *runner) flowCold(ctx context.Context) error {
	c, p, err := core.ParseBenchmark(r.sc.small)
	if err != nil {
		return err
	}
	base := r.sc.flowOpts
	one := func(ctx context.Context, seed int64) (*core.Outcome, time.Duration, time.Duration, error) {
		ctx, end := r.span(ctx, "bench.flow")
		defer end()
		t0 := time.Now()
		pctx, pend := r.span(ctx, "bench.place")
		f, err := core.NewFlowCtx(pctx, c, p, base)
		pend()
		place := time.Since(t0)
		if err != nil {
			return nil, 0, 0, err
		}
		o := base
		o.Seed = seed
		out, err := f.WithOptions(o).RunAnalogFold(ctx)
		return out, time.Since(t0), place, err
	}
	if _, _, _, err := one(context.Background(), warmSeed); err != nil {
		return fmt.Errorf("warm-up flow: %w", err)
	}
	seq := r.beginWindow(1)
	closedLoop(1, func() bool {
		i, ok := seq.take()
		if !ok {
			return false
		}
		out, wall, place, err := one(ctx, opSeed(r.seed, streamFlow, i))
		r.mu.Lock()
		defer r.mu.Unlock()
		r.attempted++
		if err != nil {
			r.failed++
			fmt.Fprintf(r.log, "bench: flow %d: %v\n", i, err)
			return true
		}
		r.done(wall)
		if out.Degradation.FinalRung != core.RungElite {
			r.failed++
		}
		r.checkMetricsLocked(fmt.Sprintf("flow %d", i), out.Metrics, out.WirelengthNm)
		t := out.Times
		r.sample("core.place_ms", ms(place))
		r.sample("dataset.build_ms", ms(t.ConstructDatabase))
		r.sample("gnn3d.train_ms", ms(t.ModelTraining))
		r.sample("relax.flow_ms", ms(t.GuideGeneration))
		r.sample("route.flow_ms", ms(t.GuidedRouting))
		r.sample("core.unattributed_pct", 100*float64(wall-t.Total())/float64(wall))
		return true
	})
	r.endWindow()
	if u := median(r.samples["core.unattributed_pct"]); math.Abs(u) > maxUnattributedPct {
		r.problem("cold flow: %.1f%% of wall time outside the Figure-5 stages", u)
	}
	// The pipeline's counters land in the bench-side telemetry attached to
	// ctx, so they exist only in a traced run.
	if reg := r.tel.Registry(); reg != nil && len(r.lat) > 0 {
		n := float64(len(r.lat))
		r.layer["relax.evals_per_op"] = float64(reg.Counter("analogfold_relax_evals_total").Value()) / n
		r.layer["relax.retried"] = float64(reg.Counter("analogfold_relax_retried_total").Value())
		r.layer["relax.dropped"] = float64(reg.Counter("analogfold_relax_dropped_total").Value())
		r.layer["route.iters_per_op"] = float64(reg.Counter("analogfold_route_negotiation_iters_total").Value()) / n
		r.layer["route.ripups_per_op"] = float64(reg.Counter("analogfold_route_ripups_total").Value()) / n
	}
	return nil
}

// guidanceOpen sends /v1/guidance requests with distinct seeds on a seeded
// schedule, whatever the daemon's progress.
func (r *runner) guidanceOpen(ctx context.Context) error {
	n := int(math.Round(r.sc.openRate*r.window.Seconds()/openCycle)) * openCycle
	if n < openCycle {
		n = openCycle
	}
	at := jitteredSchedule(opSeed(r.seed, streamOpen, -1), n, r.window)
	err := r.serveWindow(ctx, "/v1/guidance", []string{r.sc.small, r.sc.large}, func() error {
		r.beginWindow(0)
		late := openLoop(at, func(i int, due time.Time) {
			b := r.sc.small
			if i%openCycle == openCycle-1 {
				b = r.sc.large
			}
			seed := opSeed(r.seed, streamOpen, i)
			r.recordGuidance(b, seed, r.call(ctx, "/v1/guidance", b, seed, due))
		})
		r.endWindow()
		r.layer["loadgen.late_ms_max"] = ms(late)
		return nil
	})
	if err != nil || !r.trace {
		return err
	}
	var cached []int64
	for i := 0; i < n && len(cached) < r.sc.hitKeys; i++ {
		seed := opSeed(r.seed, streamOpen, i)
		if _, ok := r.bodies[fmt.Sprintf("%s|%d", r.sc.small, seed)]; ok && i%openCycle != openCycle-1 {
			cached = append(cached, seed)
		}
	}
	return r.hitProbe(ctx, cached)
}

// routeClosed runs full guided-routing requests on the small benchmark with
// distinct seeds, from two callers that each wait for their reply.
func (r *runner) routeClosed(ctx context.Context) error {
	return r.serveWindow(ctx, "/v1/route", []string{r.sc.small}, func() error {
		seq := r.beginWindow(closedCallers)
		closedLoop(closedCallers, func() bool {
			i, ok := seq.take()
			if !ok {
				return false
			}
			seed := opSeed(r.seed, streamClosed, i)
			r.recordRoute(r.sc.small, seed, r.call(ctx, "/v1/route", r.sc.small, seed, time.Now()))
			return true
		})
		r.endWindow()
		return nil
	})
}

// hitProbe measures the serve front half and the result cache, which the
// timed workloads hardly touch: once guidance_open's window has cached its
// answers, two closed-loop callers ask again for the small benchmark's
// cached seeds, Zipf-popular, sc.hitOps times. Every answer must be a hit
// carrying the first body's bytes. A hit takes about 0.13 ms, nearly all of
// it HTTP over loopback. Timed as a workload of its own on a shared 2-core
// host, its throughput spread 13% to 33% over sets of ten runs, too close
// to or beyond the widest bound a timed metric may have; so it is a
// per-layer measurement of the traced run.
func (r *runner) hitProbe(ctx context.Context, seeds []int64) error {
	if len(seeds) == 0 {
		return errors.New("hit probe: the window cached no answer")
	}
	keys := newZipfSeq(opSeed(r.seed, streamRepeat, -1), zipfS, seeds)
	before, err := r.scrape()
	if err != nil {
		return err
	}
	var left atomic.Int64
	left.Store(int64(r.sc.hitOps))
	var failure error // guarded by r.mu
	closedLoop(closedCallers, func() bool {
		if left.Add(-1) < 0 {
			return false
		}
		seed := keys.next()
		rep := r.call(ctx, "/v1/guidance", r.sc.small, seed, time.Now())
		r.mu.Lock()
		defer r.mu.Unlock()
		if rep.err != nil || rep.status != 200 {
			failure = fmt.Errorf("hit probe: guidance seed %d: status %d: %v", seed, rep.status, rep.err)
			return false
		}
		if key := fmt.Sprintf("%s|%d", r.sc.small, seed); obs.FNV64a(rep.body) != r.bodies[key] {
			r.problemLocked("hit probe: guidance %s: body differs from the first body for the key", key)
		}
		r.sample("serve.hit_ms_p50", ms(rep.latency))
		r.sample("serve.cache_ms_p50", ms(rep.stages[obs.StageCache]))
		return true
	})
	if failure != nil {
		return failure
	}
	after, err := r.scrape()
	if err != nil {
		return err
	}
	hits := after["analogfold_serve_cache_hits_total"] - before["analogfold_serve_cache_hits_total"]
	misses := after["analogfold_serve_cache_misses_total"] - before["analogfold_serve_cache_misses_total"]
	if misses != 0 {
		r.problem("hit probe: %v cache misses on cached keys", misses)
	}
	r.layer["servecache.hits"] = hits
	r.layer["servecache.hit_pct"] = 100 * hits / float64(r.sc.hitOps)
	return nil
}

// serveWindow wraps a serving workload's window: one untimed warm-up
// request per benchmark on the workload's endpoint, then the window between
// two /metrics scrapes, then the cache check and the counters that need
// both scrapes.
func (r *runner) serveWindow(ctx context.Context, path string, benches []string, window func() error) error {
	for _, b := range benches {
		rep := r.call(context.Background(), path, b, warmSeed, time.Now())
		if rep.err != nil || rep.status != 200 {
			return fmt.Errorf("warm-up %s %s: status %d: %v", path, b, rep.status, rep.err)
		}
	}
	before, err := r.scrape()
	if err != nil {
		return err
	}
	if err := window(); err != nil {
		return err
	}
	after, err := r.scrape()
	if err != nil {
		return err
	}
	d := func(name string) float64 { return after[name] - before[name] }
	misses := d("analogfold_serve_cache_misses_total")
	r.layer["servecache.misses"] = misses
	if misses > 0 {
		// Only a miss runs the pipeline, so counts are per executed request.
		r.layer["relax.evals_per_op"] = d("analogfold_relax_evals_total") / misses
		r.layer["route.iters_per_op"] = d("analogfold_route_negotiation_iters_total") / misses
		r.layer["route.ripups_per_op"] = d("analogfold_route_ripups_total") / misses
	}
	r.layer["relax.retried"] = d("analogfold_relax_retried_total")
	r.layer["relax.dropped"] = d("analogfold_relax_dropped_total")
	if waves := d("analogfold_serve_batch_size_count"); waves > 0 {
		// The wave-size histogram stores one member as one millisecond.
		r.layer["serve.wave_members_mean"] = d("analogfold_serve_batch_size_sum") * 1e3 / waves
	}
	// Every distinct key must execute exactly once: duplicates are replayed
	// or collapsed. Checkable only when every request was answered.
	if r.failed == 0 && int(misses) != len(r.bodies) {
		r.problem("cache misses %v, want one per distinct key (%d)", misses, len(r.bodies))
	}
	return nil
}

// call posts one request for a benchmark and seed inside a bench-side span.
// Like the request the `analogfold guidance` subcommand builds, it sends no
// restarts field, so the daemon's own budget (4 restarts under -quick)
// applies.
func (r *runner) call(ctx context.Context, path, bench string, seed int64, due time.Time) reply {
	ctx, end := r.span(ctx, "bench.client"+path)
	defer end()
	body := fmt.Sprintf(`{"bench":%q,"seed":%d}`, bench, seed)
	return post(ctx, r.st.client, r.st.ts.URL+path, body, due)
}

// stageMetrics names the per-request server stages reported as medians over
// the requests that spent time in them.
var stageMetrics = []struct {
	name string
	id   obs.StageID
}{
	{"serve.cache_ms_p50", obs.StageCache},
	{"serve.relax_ms_p50", obs.StageRelax},
	{"serve.score_ms_p50", obs.StageScore},
	{"serve.route_ms_p50", obs.StageRoute},
}

// recordReplyLocked does the accounting shared by both endpoints and
// reports whether the reply carries an answer to check. Callers hold mu.
func (r *runner) recordReplyLocked(what string, rep reply) bool {
	r.attempted++
	if rep.err != nil || rep.status != 200 {
		r.failed++
		fmt.Fprintf(r.log, "bench: %s: status %d: %v\n", what, rep.status, rep.err)
		return false
	}
	r.done(rep.latency)
	st := rep.stages
	r.sample("serve.queue_ms_mean", ms(st[obs.StageQueue]))
	r.sample("serve.batch_wait_ms_mean", ms(st[obs.StageBatchWait]))
	r.sample("client.wait_ms_mean", ms(rep.wait))
	r.sample("serve.other_ms_p50", ms(rep.latency-rep.wait-rep.stageSum()))
	for _, s := range stageMetrics {
		if st[s.id] > 0 {
			r.sample(s.name, ms(st[s.id]))
		}
	}
	return true
}

// recordGuidance accounts for one /v1/guidance reply of the window and
// checks it.
func (r *runner) recordGuidance(bench string, seed int64, rep reply) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.recordReplyLocked(fmt.Sprintf("guidance %s|%d", bench, seed), rep) &&
		!r.checkGuidanceLocked(bench, seed, rep.body) {
		r.failed++
	}
}

// checkGuidanceLocked checks one guidance body: the first body of every
// cache key is decoded and validated, and every later body for the key must
// be byte-identical to it. It reports false for a first body below the
// elite rung. Callers hold mu.
func (r *runner) checkGuidanceLocked(bench string, seed int64, body []byte) bool {
	key := fmt.Sprintf("%s|%d", bench, seed)
	h := obs.FNV64a(body)
	if prev, seen := r.bodies[key]; seen {
		if prev != h {
			r.problemLocked("guidance %s: body differs from the first body for the key", key)
		}
		return true
	}
	r.bodies[key] = h
	if _, ok := r.first[bench]; !ok {
		r.first[bench] = servedBody{seed: seed, body: body}
	}
	var g serve.GuidanceResponse
	if err := json.Unmarshal(body, &g); err != nil {
		r.problemLocked("guidance %s: %v", key, err)
		return true
	}
	if g.Rung != string(core.RungElite) || g.Degraded {
		return false
	}
	ok := len(g.Guides) > 0 && len(g.Predictions) == len(g.Guides) &&
		len(g.Potentials) == len(g.Guides) && finite(g.CMax)
	for _, set := range g.Guides {
		for _, v := range set {
			ok = ok && finite(v[:]...)
		}
	}
	for i := range g.Predictions {
		ok = ok && finite(g.Predictions[i][:]...) && finite(g.Potentials[i])
	}
	if !ok {
		r.problemLocked("guidance %s: empty or non-finite guidance", key)
	}
	return true
}

// recordRoute accounts for one /v1/route reply and checks its answer.
func (r *runner) recordRoute(bench string, seed int64, rep reply) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := fmt.Sprintf("%s|%d", bench, seed)
	if !r.recordReplyLocked("route "+key, rep) {
		return
	}
	r.bodies[key] = obs.FNV64a(rep.body)
	var rr serve.RouteResponse
	if err := json.Unmarshal(rep.body, &rr); err != nil {
		r.problemLocked("route %s: %v", key, err)
		return
	}
	if rr.Rung != string(core.RungElite) || rr.Degraded {
		r.failed++
		return
	}
	r.checkMetricsLocked("route "+key, circuit.Metrics{
		OffsetUV: rr.OffsetUV, CMRRdB: rr.CMRRdB, BandwidthMHz: rr.BandwidthMHz,
		GainDB: rr.GainDB, NoiseUVrms: rr.NoiseUVrms,
	}, rr.WirelengthNm)
}

// checkReferenceBodies recomputes the first served guidance body of each
// benchmark through serve.BuildGuidanceResponse, which the CLI also uses,
// and requires the same bytes.
func (r *runner) checkReferenceBodies(ctx context.Context) error {
	for bench, sb := range r.first {
		f, hg, err := r.flow(bench)
		if err != nil {
			return err
		}
		resp, err := serve.BuildGuidanceResponse(ctx, f, r.st.model, hg,
			serve.GuidanceRequest{Bench: bench, Seed: sb.seed}, true)
		if err != nil {
			return fmt.Errorf("reference guidance %s: %w", bench, err)
		}
		want, err := serve.MarshalBody(resp)
		if err != nil {
			return err
		}
		if !bytes.Equal(want, sb.body) {
			r.problem("guidance %s seed %d: served body differs from BuildGuidanceResponse", bench, sb.seed)
		}
	}
	return nil
}

// scrape reads the daemon's Prometheus exposition.
func (r *runner) scrape() (map[string]float64, error) {
	resp, err := r.st.client.Get(r.st.ts.URL + "/metrics?format=prom")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	return parseProm(resp.Body)
}
