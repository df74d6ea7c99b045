package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"io"
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
	slo   *obs.SLO          // nil when no objective configured

	mu    sync.Mutex
	flows map[string]*flowEntry

	draining sync.Once
	drained  chan struct{} // closed when drain starts; /readyz flips to 503

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
		cfg:     cfg,
		model:   model,
		adm:     newAdmission(cfg.QueueCapacity, cfg.QueueBacklog, cfg.AdmissionTimeout),
		brk:     newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		cache:   servecache.New(cfg.CacheEntries),
		flows:   make(map[string]*flowEntry),
		drained: make(chan struct{}),
	}
	if cfg.BatchWindow > 0 {
		s.batch = newBatcher(s)
	}
	s.slo = obs.NewSLO(obs.SLOConfig{LatencyTarget: cfg.SLOLatency, Availability: cfg.SLOAvailability})
	s.slo.Register(reg, "analogfold_serve")
	s.met = newMetrics(reg)
	s.registerOwnerMetrics(reg)
	s.ops = Ops{Registry: reg, Telemetry: cfg.Telemetry, SLO: s.slo, SLOPrefix: "analogfold_serve",
		Drained: s.drained, Log: s.logCtx}
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
	mux.HandleFunc("/v1/guidance", s.withObs(s.withRecovery(s.handleGuidance)))
	mux.HandleFunc("/v1/route", s.withObs(s.withRecovery(s.handleRoute)))
	mux.HandleFunc("/v1/dataset/shard", s.withObs(s.withRecovery(s.handleDatasetShard)))
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

// admit runs the shared front half of both work endpoints: method check, body
// decode, admission, per-request deadline. It returns false after writing the
// error response when the request doesn't proceed.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, into any) (release func(), ok bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		RespondJSON(w, http.StatusMethodNotAllowed, ErrorBody{Error: ErrorDetail{
			Kind: "method not allowed", Msg: "use POST"}})
		return nil, false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err == nil {
		err = json.Unmarshal(body, into)
	}
	if err != nil {
		RespondError(w, fault.Wrap(fault.StageServe, fault.ErrInvalidInput, err, "decode request"), 0)
		return nil, false
	}
	waitStart := time.Now()
	if err := s.adm.acquire(r.Context()); err != nil {
		// The Retry-After jitter keys on the request content so identical
		// retries get a consistent hint while distinct clients spread out.
		RespondError(w, err, s.adm.retryAfterSeconds(obs.FNV64a(body)))
		return nil, false
	}
	obs.StagesFrom(r.Context()).Add(obs.StageQueue, time.Since(waitStart))
	return s.adm.release, true
}

func (s *Server) handleGuidance(w http.ResponseWriter, r *http.Request) {
	var req GuidanceRequest
	release, ok := s.admit(w, r, &req)
	if !ok {
		return
	}
	defer release()
	start := time.Now()
	defer func() { s.met.guidance.Observe(time.Since(start)) }()

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	ctx, span := obs.StartSpan(obs.WithTelemetry(ctx, s.cfg.Telemetry), "serve.guidance")
	defer span.Arg("bench", req.Bench).End()
	f, hg, err := s.flowFor(req.Bench)
	if err != nil {
		RespondError(w, err, 0)
		return
	}
	if s.cache == nil {
		resp, err := s.computeGuidance(ctx, f, hg, req)
		if resp == nil {
			RespondError(w, err, 0)
			return
		}
		RespondJSON(w, http.StatusOK, resp)
		return
	}
	// The cache lookup runs before the breaker gate: a hit replays stored
	// bytes without touching the model, so it must neither consume a
	// half-open probe slot nor be refused while the breaker is open.
	key := cacheKeyFor("guidance", f, req.Seed, req.Restarts, req.NDerive)
	lookupStart := time.Now()
	body, st, err := s.cache.Do(ctx, key, func() ([]byte, bool, error) {
		resp, cerr := s.computeGuidance(ctx, f, hg, req)
		if resp == nil {
			return nil, false, cerr
		}
		b, merr := MarshalBody(resp)
		if merr != nil {
			return nil, false, merr
		}
		return b, cacheable(resp.Rung, resp.Degraded, resp.Breaker), nil
	})
	if st != servecache.StatusMiss {
		// Hits and collapses spent their whole Do inside the cache layer; a
		// miss's time is attributed by the compute stages themselves.
		obs.StagesFrom(ctx).Add(obs.StageCache, time.Since(lookupStart))
	}
	w.Header().Set(HeaderCache, st.String())
	span.Arg("cache", st.String())
	if body == nil {
		RespondError(w, err, 0)
		return
	}
	writeBody(w, http.StatusOK, body)
}

// computeGuidance is the shared uncached/cache-miss execution of one guidance
// request: breaker gate, work function, breaker accounting, degradation
// counting. A nil response means err must be written as the HTTP error; a
// non-nil response is servable even when the pipeline reported a (degraded)
// fault — exactly the pre-cache handler contract.
func (s *Server) computeGuidance(ctx context.Context, f *core.Flow, hg *hetgraph.Graph, req GuidanceRequest) (*GuidanceResponse, error) {
	useModel := s.brk.allow()
	resp, err := s.doGuidance(ctx, f, hg, req, useModel)
	if useModel {
		s.recordModelOutcome(err)
	}
	if resp == nil {
		return nil, err
	}
	if !useModel {
		resp.Breaker = "open"
	}
	if resp.Degraded {
		s.met.degraded.Add(1)
	}
	return resp, nil
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	var req RouteRequest
	release, ok := s.admit(w, r, &req)
	if !ok {
		return
	}
	defer release()
	start := time.Now()
	defer func() { s.met.route.Observe(time.Since(start)) }()

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	ctx, span := obs.StartSpan(obs.WithTelemetry(ctx, s.cfg.Telemetry), "serve.route")
	defer span.Arg("bench", req.Bench).End()
	f, hg, err := s.flowFor(req.Bench)
	if err != nil {
		RespondError(w, err, 0)
		return
	}
	if s.cache == nil {
		resp, err := s.computeRoute(ctx, f, hg, req)
		if resp == nil {
			RespondError(w, err, 0)
			return
		}
		RespondJSON(w, http.StatusOK, resp)
		return
	}
	key := cacheKeyFor("route", f, req.Seed, req.Restarts, req.NDerive)
	lookupStart := time.Now()
	body, st, err := s.cache.Do(ctx, key, func() ([]byte, bool, error) {
		resp, cerr := s.computeRoute(ctx, f, hg, req)
		if resp == nil {
			return nil, false, cerr
		}
		b, merr := MarshalBody(resp)
		if merr != nil {
			return nil, false, merr
		}
		return b, cacheable(resp.Rung, resp.Degraded, resp.Breaker), nil
	})
	if st != servecache.StatusMiss {
		obs.StagesFrom(ctx).Add(obs.StageCache, time.Since(lookupStart))
	}
	w.Header().Set(HeaderCache, st.String())
	span.Arg("cache", st.String())
	if body == nil {
		RespondError(w, err, 0)
		return
	}
	writeBody(w, http.StatusOK, body)
}

// computeRoute mirrors computeGuidance for the full-flow endpoint.
func (s *Server) computeRoute(ctx context.Context, f *core.Flow, hg *hetgraph.Graph, req RouteRequest) (*RouteResponse, error) {
	useModel := s.brk.allow()
	resp, out, err := s.doRoute(ctx, f, hg, req, useModel)
	if err != nil {
		if useModel {
			s.recordModelOutcome(err)
		}
		return nil, err
	}
	if useModel {
		s.recordModelOutcome(out.Degradation.ModelFault())
	}
	if out != nil {
		s.met.relax.Observe(out.Times.GuideGeneration)
	}
	if !useModel {
		resp.Breaker = "open"
	}
	if resp.Degraded {
		s.met.degraded.Add(1)
	}
	return resp, nil
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
// SIGINT in the binary), then drains: the listener closes, /readyz flips to
// 503 so load balancers stop sending traffic, in-flight requests get up to
// DrainTimeout to finish, and only then are stragglers cut off.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.draining.Do(func() { close(s.drained) })
	s.logf("draining: waiting up to %s for %d in-flight requests",
		s.cfg.DrainTimeout, s.adm.inflight.Load())
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := hs.Shutdown(dctx)
	if err != nil {
		// Drain deadline blown: hard-close the stragglers so the process can
		// exit instead of hanging forever.
		s.logf("drain timeout: force-closing remaining connections")
		hs.Close()
	}
	<-errc // http.ErrServerClosed from the Serve goroutine
	return err
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
