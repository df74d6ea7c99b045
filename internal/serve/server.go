package serve

import (
	"context"
	"errors"
	"expvar"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"analogfold/internal/core"
	"analogfold/internal/fault"
	"analogfold/internal/gnn3d"
	"analogfold/internal/hetgraph"
	"analogfold/internal/obs"
	"analogfold/internal/servecache"
)

// Config sizes the daemon's robustness machinery. Zero values inherit the
// defaults noted on each field.
type Config struct {
	// QueueCapacity bounds concurrently executing requests (default 4).
	QueueCapacity int
	// QueueBacklog bounds the waiting room beyond the executing set (default
	// 4×capacity). A request arriving with the backlog full is shed at once.
	QueueBacklog int
	// AdmissionTimeout bounds how long a request may wait for a slot before
	// being shed with 503 + Retry-After (default 1s).
	AdmissionTimeout time.Duration
	// RequestTimeout is the per-request deadline threaded down the pipeline
	// context chain once admitted (default 5m).
	RequestTimeout time.Duration
	// DrainTimeout bounds the graceful drain on shutdown (default 30s).
	DrainTimeout time.Duration
	// BreakerThreshold is the consecutive-model-fault count that trips the
	// circuit breaker (default 3); BreakerCooldown the open interval before a
	// half-open probe (default 30s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// CacheEntries bounds the content-addressed result cache (0 disables
	// caching — the zero value keeps the daemon's original request-scoped
	// behavior). Responses are keyed by the canonical digest of (netlist,
	// placement profile, effective options); identical in-flight requests
	// collapse onto one execution regardless of this bound.
	CacheEntries int
	// BatchWindow is the micro-batching latency budget for /v1/guidance
	// model-path work: concurrent distinct requests for the same benchmark
	// arriving within the window have their candidate guidance sets scored
	// through one PredictBatch call. 0 disables batching (the zero value —
	// and the byte-identical reference path). BatchMax caps a wave's member
	// count (default 8 when batching is on).
	BatchWindow time.Duration
	BatchMax    int
	// Opts are the base flow options (seed, restart budget, workers, stage
	// timeouts…) that per-request knobs override.
	Opts core.Options
	// Logger, when set, receives operational log lines (panics, breaker
	// trips, drain progress) as structured records.
	Logger *slog.Logger
	// Telemetry, when set, is injected into every admitted request's context:
	// the pipeline's spans and events land in its flight recorder (served at
	// /debug/flight) and its registry backs /metrics. When nil the daemon
	// still keeps a private registry so /metrics works, but records no spans.
	Telemetry *obs.Telemetry
	// SLOLatency and SLOAvailability configure the burn-rate SLO engine
	// served at /debug/slo: a per-request latency objective and a shared
	// availability/compliance target (e.g. 0.999). Both zero disables the
	// engine.
	SLOLatency      time.Duration
	SLOAvailability float64
}

func (c Config) withDefaults() Config {
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 4
	}
	if c.QueueBacklog <= 0 {
		c.QueueBacklog = 4 * c.QueueCapacity
	}
	if c.AdmissionTimeout <= 0 {
		c.AdmissionTimeout = time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 8
	}
	return c
}

// flowEntry caches one benchmark's placed flow and prebuilt heterogeneous
// graph. Built once under the sync.Once, then shared read-only by every
// request for that benchmark.
type flowEntry struct {
	once sync.Once
	flow *core.Flow
	hg   *hetgraph.Graph
	err  error
}

// Server is the analogfoldd HTTP daemon: one warm model, per-benchmark cached
// flows, and the admission/breaker/recovery stack in front of them.
type Server struct {
	cfg   Config
	model *gnn3d.Model
	adm   *admission
	brk   *breaker
	met   metrics
	ops   Ops
	cache *servecache.Cache // nil when CacheEntries == 0
	batch *batcher          // nil when BatchWindow == 0
	front Front

	mu    sync.Mutex
	flows map[string]*flowEntry

	// doGuidance / doRoute perform the admitted work. They default to the
	// real warm-path builders; tests substitute stubs to make load-shed and
	// panic scenarios deterministic.
	doGuidance func(ctx context.Context, f *core.Flow, hg *hetgraph.Graph, req GuidanceRequest, useModel bool) (*GuidanceResponse, error)
	doRoute    func(ctx context.Context, f *core.Flow, hg *hetgraph.Graph, req RouteRequest, useModel bool) (*RouteResponse, *core.Outcome, error)
}

// New builds a server around an already-loaded checkpoint.
func New(model *gnn3d.Model, cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Telemetry.Registry()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cfg:   cfg,
		model: model,
		adm:   newAdmission(cfg.QueueCapacity, cfg.QueueBacklog, cfg.AdmissionTimeout),
		brk:   newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		cache: servecache.New(cfg.CacheEntries),
		flows: make(map[string]*flowEntry),
	}
	if cfg.BatchWindow > 0 {
		s.batch = newBatcher(s)
	}
	slo := obs.NewSLO(obs.SLOConfig{LatencyTarget: cfg.SLOLatency, Availability: cfg.SLOAvailability})
	slo.Register(reg, "analogfold_serve")
	s.met = newMetrics(reg)
	// The stage histograms aggregate every request's latency attribution
	// (queue wait, batch wait, cache, relax, route, score).
	s.front = Front{Telemetry: cfg.Telemetry, SLO: slo, Export: true,
		Stages: obs.NewStageMetrics(reg, "analogfold_serve")}
	s.registerOwnerMetrics(reg)
	s.ops = Ops{Registry: reg, Telemetry: cfg.Telemetry, SLO: slo, SLOPrefix: "analogfold_serve",
		Drained: make(chan struct{}), DrainTimeout: cfg.DrainTimeout, Log: s.logCtx}
	s.doGuidance = func(ctx context.Context, f *core.Flow, hg *hetgraph.Graph, req GuidanceRequest, useModel bool) (*GuidanceResponse, error) {
		if useModel && s.model != nil && s.batch != nil {
			return s.buildGuidanceWave(ctx, f, hg, req)
		}
		return BuildGuidanceResponse(ctx, f, s.model, hg, req, useModel)
	}
	s.doRoute = func(ctx context.Context, f *core.Flow, hg *hetgraph.Graph, req RouteRequest, useModel bool) (*RouteResponse, *core.Outcome, error) {
		return BuildRouteResponse(ctx, f, s.model, hg, req, useModel)
	}
	return s
}

// flowFor returns the cached (or lazily built) flow for a benchmark id. The
// expensive placement runs at most once per benchmark for the daemon's
// lifetime; concurrent first requests block on the same sync.Once.
func (s *Server) flowFor(bench string) (*core.Flow, *hetgraph.Graph, error) {
	ckt, prof, err := core.ParseBenchmark(bench)
	if err != nil {
		return nil, nil, fault.Wrap(fault.StageServe, fault.ErrInvalidInput, err, "bench %q", bench)
	}
	key := ckt.Name + "-" + string(prof)
	s.mu.Lock()
	e, ok := s.flows[key]
	if !ok {
		e = &flowEntry{}
		s.flows[key] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		f, err := core.NewFlow(ckt, prof, s.cfg.Opts)
		if err != nil {
			e.err = err
			return
		}
		hg, err := f.BuildHetGraph()
		if err != nil {
			e.err = err
			return
		}
		e.flow, e.hg = f, hg
	})
	return e.flow, e.hg, e.err
}

// Warm pre-builds the flows for the given benchmarks so the first request
// doesn't pay the placement. The daemon calls it before marking ready.
func (s *Server) Warm(benches []string) error {
	for _, b := range benches {
		if _, _, err := s.flowFor(b); err != nil {
			return err
		}
	}
	return nil
}

// Handler returns the daemon's routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/guidance", s.handleWork(endpoint{
		span: "serve.guidance", kind: "guidance", hist: s.met.guidance, work: s.guidanceWork}))
	mux.HandleFunc("/v1/route", s.handleWork(endpoint{
		span: "serve.route", kind: "route", hist: s.met.route, work: s.routeWork}))
	mux.HandleFunc("/v1/dataset/shard", s.handleDatasetShard)
	s.ops.Mount(mux)
	return mux
}

// DebugHandler returns the diagnostics surface the daemon serves on its
// separate -debug-addr listener: net/http/pprof, /debug/vars (expvar) and the
// same ops endpoints as Handler. It is kept off the main listener so
// profiling endpoints are never exposed on the service port by accident.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	s.ops.Mount(mux)
	return mux
}

// serveAdmitted runs one daemon work request: the shared front (request ID,
// telemetry, trace join, POST check, body decode into into), then panic
// containment, admission, the per-request deadline and the endpoint's
// latency histogram around work.
func (s *Server) serveAdmitted(w http.ResponseWriter, r *http.Request, into any, hist *obs.Histogram, work func(ctx context.Context, w http.ResponseWriter)) {
	s.front.Serve(w, r, into, func(w http.ResponseWriter, r *http.Request, body []byte) {
		defer s.recoverPanic(w, r)
		waitStart := time.Now()
		if err := s.adm.acquire(r.Context()); err != nil {
			// The Retry-After jitter keys on the request content so identical
			// retries get a consistent hint while distinct clients spread out.
			RespondError(w, err, s.adm.retryAfterSeconds(obs.FNV64a(body)))
			return
		}
		defer s.adm.release()
		obs.StagesFrom(r.Context()).Add(obs.StageQueue, time.Since(waitStart))
		start := time.Now()
		defer func() { hist.Observe(time.Since(start)) }()
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		work(ctx, w)
	})
}

// endpoint describes one of the two model-path work endpoints, /v1/guidance
// and /v1/route, to the one handler that serves both.
type endpoint struct {
	span string         // the request's span name
	kind string         // cache-key kind
	hist *obs.Histogram // handler time after admission
	// work runs the request, on the model path when useModel, and returns the
	// response (nil on failure) plus the error the breaker should see.
	work func(ctx context.Context, f *core.Flow, hg *hetgraph.Graph, req GuidanceRequest, useModel bool) (workResponse, error)
}

// workResponse is either endpoint's response, as the shared handler reads
// and marks it.
type workResponse interface {
	// ladder returns the degradation-ladder fields: the rung, whether the
	// response is degraded, and the breaker field to mark when the model
	// was skipped.
	ladder() (rung string, degraded bool, breaker *string)
}

func (r *GuidanceResponse) ladder() (string, bool, *string) { return r.Rung, r.Degraded, &r.Breaker }
func (r *RouteResponse) ladder() (string, bool, *string)    { return r.Rung, r.Degraded, &r.Breaker }

// handleWork serves one model-path endpoint. A GuidanceRequest decodes
// either endpoint's body: RouteRequest has the same fields.
func (s *Server) handleWork(ep endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req GuidanceRequest
		s.serveAdmitted(w, r, &req, ep.hist, func(ctx context.Context, w http.ResponseWriter) {
			ctx, span := obs.StartSpan(ctx, ep.span)
			defer span.Arg("bench", req.Bench).End()
			f, hg, err := s.flowFor(req.Bench)
			if err != nil {
				RespondError(w, err, 0)
				return
			}
			// The cache lookup runs before the breaker gate: a hit replays
			// stored bytes without touching the model, so it must neither
			// consume a half-open probe slot nor be refused while the breaker
			// is open. A nil cache (caching off) runs compute directly.
			var key string
			if s.cache != nil {
				key = cacheKeyFor(ep.kind, f, req.Seed, req.Restarts, req.NDerive)
			}
			lookupStart := time.Now()
			body, st, err := s.cache.Do(ctx, key, func() ([]byte, bool, error) {
				return s.compute(ctx, ep, f, hg, req)
			})
			if st != servecache.StatusMiss {
				// Hits and collapses spent their whole Do inside the cache
				// layer; a miss's time is attributed by the compute stages.
				obs.StagesFrom(ctx).Add(obs.StageCache, time.Since(lookupStart))
			}
			if s.cache != nil {
				w.Header().Set(HeaderCache, st.String())
				span.Arg("cache", st.String())
			}
			if body == nil {
				RespondError(w, err, 0)
				return
			}
			writeBody(w, http.StatusOK, body)
		})
	}
}

// compute is the cache-miss (or uncached) execution of one work request:
// breaker gate, the endpoint's work, breaker accounting, degradation
// counting, marshaling. A nil body means err must be written as the HTTP
// error; a body is servable even when the pipeline reported a (degraded)
// fault. Only full-quality elite bodies are cacheable.
func (s *Server) compute(ctx context.Context, ep endpoint, f *core.Flow, hg *hetgraph.Graph, req GuidanceRequest) ([]byte, bool, error) {
	useModel := s.brk.allow()
	resp, err := ep.work(ctx, f, hg, req, useModel)
	if useModel {
		s.recordModelOutcome(err)
	}
	if resp == nil {
		return nil, false, err
	}
	rung, degraded, breaker := resp.ladder()
	if !useModel {
		*breaker = "open"
	}
	if degraded {
		s.met.degraded.Add(1)
	}
	body, err := MarshalBody(resp)
	if err != nil {
		return nil, false, err
	}
	return body, cacheable(rung, degraded, *breaker), nil
}

// guidanceWork is /v1/guidance's work: a degraded response comes back
// together with the relaxation fault that degraded it.
func (s *Server) guidanceWork(ctx context.Context, f *core.Flow, hg *hetgraph.Graph, req GuidanceRequest, useModel bool) (workResponse, error) {
	resp, err := s.doGuidance(ctx, f, hg, req, useModel)
	if resp == nil {
		return nil, err
	}
	return resp, err
}

// routeWork is /v1/route's work: the breaker sees the model fault the flow
// degraded past, if any.
func (s *Server) routeWork(ctx context.Context, f *core.Flow, hg *hetgraph.Graph, req GuidanceRequest, useModel bool) (workResponse, error) {
	resp, out, err := s.doRoute(ctx, f, hg, RouteRequest(req), useModel)
	if err != nil {
		return nil, err
	}
	s.met.relax.Observe(out.Times.GuideGeneration)
	return resp, out.Degradation.ModelFault()
}

// recordModelOutcome feeds the breaker after a model-path attempt. Timeouts
// and cancellations are the client's (or operator's) doing and say nothing
// about the model, so they don't count either way.
func (s *Server) recordModelOutcome(err error) {
	if err != nil && fault.IsTimeout(err) {
		s.brk.abortProbe()
		return
	}
	isFault := err != nil &&
		(errors.Is(err, fault.ErrModelEval) || errors.Is(err, fault.ErrDiverged) ||
			errors.Is(err, fault.ErrExhausted))
	if !isFault && err != nil {
		// A non-model failure (e.g. routing infrastructure): neutral — don't
		// reset the consecutive count a flaky model has been accumulating.
		s.brk.abortProbe()
		return
	}
	before, _, _ := s.brk.snapshot()
	s.brk.record(isFault)
	if after, _, _ := s.brk.snapshot(); after != before {
		s.logf("breaker %s -> %s", before, after)
	}
}

// Serve runs the daemon on the listener until ctx is canceled (SIGTERM /
// SIGINT in the binary), then drains (Ops.Serve): /readyz flips to 503,
// in-flight requests get up to DrainTimeout to finish, and only then are
// stragglers cut off.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	return s.ops.Serve(ctx, ln, s.Handler(), func() {
		s.logf("draining: waiting up to %s for %d in-flight requests",
			s.cfg.DrainTimeout, s.adm.inflight.Load())
	})
}

// ListenAndServe binds addr and calls Serve.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.logf("analogfoldd listening on %s", ln.Addr())
	return s.Serve(ctx, ln)
}
