// Package cluster is analogfoldd's horizontal scale-out layer: a thin,
// fault-tolerant coordinator that shards /v1/guidance and /v1/route requests
// across N replica daemons and keeps answering through replica failure.
//
// The design is a ladder of increasingly desperate ways to produce a correct
// answer, mirroring the single-daemon degradation ladder one level up:
//
//  1. Affinity. Each request is routed by rendezvous hashing over its
//     netlist digest (hash.go), so the same benchmark lands on the same
//     replica and its warm flow cache — and every request has a
//     deterministic failover order over the remaining replicas.
//  2. Health-driven routing. A per-replica prober tracks /readyz and grades
//     live replicas by their /metrics scrape (breaker state, admission queue
//     depth); down replicas are demoted to last-ditch candidates, degraded
//     ones behind healthy ones, all without disturbing the hash order within
//     a tier.
//  3. Failover. Transport errors, timeouts and 5xx answers fail over to the
//     next replica on the ladder after a jittered backoff; the jitter is
//     derived deterministically from the request digest so retry waves from
//     distinct requests decorrelate.
//  4. Hedging. After a latency budget — an adaptive percentile of observed
//     proxy latencies, or a static default until enough samples exist — a
//     hedge is launched at the next candidate. First success wins and
//     cancels every other in-flight attempt via context; a request is never
//     answered twice.
//  5. Local degradation. When every replica has failed, the coordinator
//     answers from an embedded nil-model serve.Server — the elite→uniform→
//     MagicalRoute ladder of PR 2 — so a full replica outage degrades the
//     answer instead of erroring it.
//
// Because replicas are bit-deterministic (a served body is pinned to the CLI
// artifact), any healthy replica returns the same bytes for a given request;
// failover and hedging therefore cannot change what the client sees, only
// whether and how fast it sees it. The chaos suite (chaos_test.go, under the
// faultinject tag) kills replicas mid-drain, mid-request and mid-hedge and
// asserts exactly that, plus the accounting invariant
// accepted == answered + shed and goroutine-leak freedom after drain.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"analogfold/internal/dataset"
	"analogfold/internal/fault"
	"analogfold/internal/obs"
	"analogfold/internal/serve"
)

// HeaderReplica names the replica (or "local") that produced the response
// body, for debugging and the chaos suite's reconciliation.
const HeaderReplica = "X-Analogfold-Replica"

// Config sizes the coordinator. Zero values inherit the defaults noted on
// each field.
type Config struct {
	// Replicas are the backend daemons' base URLs (e.g. http://10.0.0.1:8080).
	Replicas []string
	// ProbeInterval is the health-refresh period per replica (default 2s);
	// ProbeTimeout bounds each probe round trip (default 1s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// AttemptTimeout bounds a single proxied attempt (default 2m).
	AttemptTimeout time.Duration
	// HedgeAfter is the hedge budget before enough latency samples exist
	// (default 250ms). With HedgePercentile > 0 (default 0.95) the budget
	// adapts to that percentile of observed successful proxy latencies,
	// clamped to [1ms, AttemptTimeout/2]. HedgePercentile < 0 disables
	// adaptation and always uses HedgeAfter.
	HedgeAfter      time.Duration
	HedgePercentile float64
	// MaxHedges bounds hedged launches per request (default 1).
	MaxHedges int
	// RetryBackoff is the base failover backoff (default 5ms); attempt k
	// waits backoff·2^(k-1) plus a deterministic jitter from the request
	// digest, capped at 8× the base.
	RetryBackoff time.Duration
	// BusyQueueDepth is the scraped admission queue depth at which a live
	// replica is graded degraded and routed around (default 16).
	BusyQueueDepth int64
	// DrainTimeout bounds the graceful drain on shutdown (default 30s).
	DrainTimeout time.Duration
	// LeaseTTL bounds one replica's tenure on a dataset shard lease (default
	// 5m): a replica that hasn't returned its shard within the TTL — or whose
	// health probe grades it down mid-lease — forfeits the lease and the
	// shard is re-dispatched down the failover ladder.
	LeaseTTL time.Duration
	// DatasetDir, when set, roots the crash-safe dataset manifest journals:
	// each /v1/dataset job keeps its shard files and manifest in a
	// per-job subdirectory so a restarted coordinator resumes instead of
	// regenerating. Empty disables journaling (jobs run in memory).
	DatasetDir string
	// DatasetShardSize is the default samples-per-shard for /v1/dataset jobs
	// that don't specify one (default dataset.DefaultShardSize).
	DatasetShardSize int
	// Local, when set, is the nil-model fallback server answering when every
	// replica is down: the last rung of the cluster ladder.
	Local *serve.Server
	// Transport overrides the outbound HTTP transport (tests inject one).
	Transport http.RoundTripper
	Logger    *slog.Logger
	// Telemetry backs the coordinator's /metrics registry and span recorder.
	Telemetry *obs.Telemetry
	// SLOLatency and SLOAvailability configure the coordinator's burn-rate
	// engine over the proxy path (served at /debug/slo). Zero for both leaves
	// the engine off; see obs.SLOConfig for window defaults.
	SLOLatency      time.Duration
	SLOAvailability float64
	SLOFastWindow   time.Duration
	SLOSlowWindow   time.Duration
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 2 * time.Minute
	}
	if c.HedgeAfter <= 0 {
		c.HedgeAfter = 250 * time.Millisecond
	}
	if c.HedgePercentile == 0 {
		c.HedgePercentile = 0.95
	}
	if c.MaxHedges <= 0 {
		c.MaxHedges = 1
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 5 * time.Millisecond
	}
	if c.BusyQueueDepth <= 0 {
		c.BusyQueueDepth = 16
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 5 * time.Minute
	}
	if c.DatasetShardSize <= 0 {
		c.DatasetShardSize = dataset.DefaultShardSize
	}
	return c
}

// Coordinator shards work requests across replicas and keeps serving through
// their failure.
type Coordinator struct {
	cfg      Config
	replicas []*replica
	client   *http.Client
	local    http.Handler
	met      metrics
	reg      *obs.Registry
	lat      obs.Histogram // proxy latencies behind the adaptive hedge budget
	slo      *obs.SLO
	stages   *obs.StageMetrics

	stopc    chan struct{}
	wg       sync.WaitGroup
	draining sync.Once
	drained  chan struct{}
}

// New builds a coordinator over the configured replica set.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	tr := cfg.Transport
	if tr == nil {
		tr = &http.Transport{
			MaxIdleConnsPerHost:   16,
			IdleConnTimeout:       30 * time.Second,
			ResponseHeaderTimeout: 0, // per-attempt contexts own the deadline
		}
	}
	reg := cfg.Telemetry.Registry()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Coordinator{
		cfg:     cfg,
		client:  &http.Client{Transport: tr},
		reg:     reg,
		stopc:   make(chan struct{}),
		drained: make(chan struct{}),
		stages:  obs.NewStageMetrics(reg, "analogfold_cluster"),
	}
	c.slo = obs.NewSLO(obs.SLOConfig{
		LatencyTarget: cfg.SLOLatency, Availability: cfg.SLOAvailability,
		FastWindow: cfg.SLOFastWindow, SlowWindow: cfg.SLOSlowWindow,
	})
	c.slo.Register(reg, "analogfold_cluster")
	for _, u := range cfg.Replicas {
		c.replicas = append(c.replicas, newReplica(u))
	}
	if cfg.Local != nil {
		c.local = cfg.Local.Handler()
	}
	c.registerReplicaMetrics(reg)
	for _, r := range c.replicas {
		c.wg.Add(1)
		go c.probeLoop(r)
	}
	return c
}

// Handler returns the coordinator's routing table: the same service surface
// a replica exposes, so clients and load balancers cannot tell the tiers
// apart.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/guidance", c.handleWork)
	mux.HandleFunc("/v1/route", c.handleWork)
	mux.HandleFunc("/v1/dataset", c.handleDataset)
	mux.HandleFunc("/healthz", c.handleHealthz)
	mux.HandleFunc("/readyz", c.handleReadyz)
	mux.HandleFunc("/metrics", c.handleMetrics)
	mux.HandleFunc("/debug/flight", c.handleFlight)
	mux.HandleFunc("/debug/slo", c.handleSLO)
	return mux
}

// candidates returns the request's failover ladder: every replica in
// rendezvous order for key, partitioned up → degraded → down. Down replicas
// stay in the ladder as a last resort — a stale probe must not turn a
// servable request into a local degradation — but only after every live
// candidate has had its chance.
func (c *Coordinator) candidates(key uint64) []*replica {
	hashes := make([]uint64, len(c.replicas))
	for i, r := range c.replicas {
		hashes[i] = r.hash
	}
	order := rankOrder(key, hashes)
	out := make([]*replica, 0, len(order))
	for _, tier := range []replicaState{stateUp, stateDegraded, stateDown} {
		for _, i := range order {
			if c.replicas[i].getState() == tier {
				out = append(out, c.replicas[i])
			}
		}
	}
	return out
}

// attemptResult is one replica attempt's outcome.
type attemptResult struct {
	rep    *replica
	status int
	header http.Header
	body   []byte
	err    error
	hedged bool
	dur    time.Duration // round trip of this attempt (proxy-overhead attribution)
}

// retryable reports whether the ladder should move on: transport errors,
// attempt timeouts, replica sheds (503, including drain) and 5xx crashes all
// fail over; 2xx and client errors are final.
func retryable(res *attemptResult) bool {
	return res.err != nil || res.status >= http.StatusInternalServerError
}

// maxResponseBytes bounds a proxied body (guidance sets are ~100KB; 8MB is
// generous headroom, not a DoS surface).
const maxResponseBytes = 8 << 20

// attempt proxies one request to one replica and reports the outcome. It
// always sends exactly one result, and the results channel is buffered to
// the candidate count, so attempt goroutines can never block or leak past
// the request. Each attempt — winner, hedged loser, failover retry — is a
// span of its own under the request's cluster.proxy span; the outbound
// traceparent carries the attempt span's identity, so replica-side spans
// merge into the coordinator trace as children of the exact attempt that
// triggered them.
func (c *Coordinator) attempt(ctx context.Context, rep *replica, path string, body []byte, reqID string, hedged bool, out chan<- *attemptResult) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	actx, span := obs.StartSpan(actx, "cluster.attempt")
	span.Arg("replica", rep.url).Arg("hedged", hedged)
	defer span.End()
	rep.requests.Add(1)
	if hedged {
		rep.hedges.Add(1)
	}
	req, err := http.NewRequestWithContext(actx, http.MethodPost, rep.url+path, bytes.NewReader(body))
	if err != nil {
		out <- &attemptResult{rep: rep, err: err, hedged: hedged}
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.HeaderRequestID, reqID)
	obs.InjectTraceparent(actx, req.Header)
	start := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		// A loser canceled because a sibling won must not poison the
		// replica's health record — it said nothing about this replica.
		if ctx.Err() != nil && errors.Is(err, context.Canceled) {
			out <- &attemptResult{rep: rep, err: context.Canceled, hedged: hedged}
			return
		}
		rep.markFailure(true)
		out <- &attemptResult{rep: rep, err: err, hedged: hedged}
		return
	}
	b, rerr := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	resp.Body.Close()
	if rerr != nil {
		// Connection died mid-body: the client must never see this — fail
		// over instead of forwarding a truncated answer.
		if !(ctx.Err() != nil && errors.Is(rerr, context.Canceled)) {
			rep.markFailure(true)
		}
		out <- &attemptResult{rep: rep, err: rerr, hedged: hedged}
		return
	}
	// The body is fully read, so any announced trailers are in. Merging here
	// — not at the winner-selection point — is what lands hedged losers' and
	// failed-over attempts' replica-side spans in the coordinator trace too.
	c.importTrailerSpans(resp.Trailer.Get(serve.TrailerSpans), resp.Trailer.Get(serve.TrailerClock), rep.url)
	if resp.StatusCode >= http.StatusInternalServerError {
		rep.markFailure(false)
	} else {
		rep.markSuccess()
		c.lat.Observe(time.Since(start))
	}
	span.Arg("status", resp.StatusCode)
	out <- &attemptResult{rep: rep, status: resp.StatusCode, header: resp.Header, body: b, hedged: hedged, dur: time.Since(start)}
}

// importTrailerSpans merges one replica response's exported span summaries
// into the coordinator's flight recorder. The replica's wall clock at
// response completion (TrailerClock) against the coordinator's clock at read
// estimates the inter-process clock offset; imported timestamps are rebased
// by it and the residual is annotated on each imported span (DESIGN.md §16).
func (c *Coordinator) importTrailerSpans(spans, clock, proc string) {
	if spans == "" || !c.cfg.Telemetry.Enabled() {
		return
	}
	sums, err := obs.DecodeSpanSummaries(spans)
	if err != nil || len(sums) == 0 {
		return
	}
	var offsetUS int64
	if cus, perr := strconv.ParseInt(clock, 10, 64); perr == nil && cus != 0 {
		offsetUS = cus - time.Now().UnixMicro()
	}
	c.cfg.Telemetry.ImportSpans(sums, proc, offsetUS)
}

// raceStats is one request's failover/hedge accounting.
type raceStats struct {
	failovers int64
	hedges    int64
}

// hedgeDelay returns the current hedge budget: the configured percentile of
// observed proxy latencies once enough samples exist, else the static
// default. Clamped so an adaptive budget can neither hedge instantly on a
// fast day nor never on a slow one.
func (c *Coordinator) hedgeDelay() time.Duration {
	if c.cfg.HedgePercentile < 0 {
		return c.cfg.HedgeAfter
	}
	const minSamples = 16
	if c.lat.Count() < minSamples {
		return c.cfg.HedgeAfter
	}
	d := c.lat.Quantile(c.cfg.HedgePercentile)
	if min := time.Millisecond; d < min {
		d = min
	}
	if max := c.cfg.AttemptTimeout / 2; d > max {
		d = max
	}
	return d
}

// failoverBackoff is the wait before failover attempt n (1-based):
// base·2^(n-1) capped at 8×, plus a deterministic jitter in [0, base) drawn
// from the request digest — retries of distinct requests decorrelate without
// nondeterminism.
func failoverBackoff(base time.Duration, n int64, key uint64) time.Duration {
	mult := int64(1) << (n - 1)
	if mult > 8 {
		mult = 8
	}
	jitter := time.Duration(obs.Mix64(key+uint64(n)) % uint64(base))
	return time.Duration(mult)*base + jitter
}

// sleepCtx waits d unless ctx ends first; reports whether the full wait
// elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// raceReplicas runs the request down its candidate ladder: sequential
// failover on retryable outcomes, at most MaxHedges hedged launches after
// the hedge budget, first acceptable answer wins and cancels the rest. It
// returns the winning (or final failing) result; nil only when canceled
// before any attempt concluded.
func (c *Coordinator) raceReplicas(ctx context.Context, cands []*replica, path string, body []byte, reqID string, key uint64) (*attemptResult, raceStats) {
	var stats raceStats
	if len(cands) == 0 {
		return nil, stats
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan *attemptResult, len(cands))
	next, inflight := 0, 0
	launch := func(hedged bool) {
		rep := cands[next]
		next++
		inflight++
		go c.attempt(rctx, rep, path, body, reqID, hedged, results)
	}
	launch(false)
	hedge := time.NewTimer(c.hedgeDelay())
	defer hedge.Stop()
	var last *attemptResult
	for {
		select {
		case res := <-results:
			inflight--
			if !retryable(res) {
				return res, stats
			}
			last = res
			if errors.Is(res.err, context.Canceled) && ctx.Err() != nil {
				// The client went away; nothing left to win.
				return last, stats
			}
			if next < len(cands) {
				stats.failovers++
				if !sleepCtx(rctx, failoverBackoff(c.cfg.RetryBackoff, stats.failovers, key)) {
					return last, stats
				}
				launch(false)
			} else if inflight == 0 {
				return last, stats
			}
		case <-hedge.C:
			if next < len(cands) && stats.hedges < int64(c.cfg.MaxHedges) {
				stats.hedges++
				launch(true)
				// Re-arm: a further budget elapsing may launch the next hedge
				// (bounded by MaxHedges and the candidate ladder).
				hedge.Reset(c.hedgeDelay())
			}
		case <-rctx.Done():
			if last == nil {
				last = &attemptResult{err: rctx.Err()}
			}
			return last, stats
		}
	}
}

// statusWriter records the final status so handleWork can keep the
// accepted == answered + shed invariant without trusting each branch to
// count itself.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// handleWork is the proxy path for both work endpoints.
func (c *Coordinator) handleWork(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w}
	c.met.accepted.Add(1)
	handlerStart := time.Now()
	defer func() {
		// Every accepted request is accounted exactly once: a 503 of any
		// provenance (replica shed passthrough, local-fallback shed, full
		// outage with no fallback) is a shed, everything else an answer.
		if sw.status == http.StatusServiceUnavailable {
			c.met.shed.Add(1)
		} else {
			c.met.answered.Add(1)
		}
		c.slo.Record(time.Since(handlerStart), sw.status < http.StatusInternalServerError)
	}()

	if r.Method != http.MethodPost {
		sw.Header().Set("Allow", http.MethodPost)
		writeJSON(sw, http.StatusMethodNotAllowed, serve.ErrorBody{Error: serve.ErrorDetail{
			Kind: "method not allowed", Msg: "use POST"}})
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	var breq struct {
		Bench string `json:"bench"`
	}
	if err == nil {
		err = json.Unmarshal(body, &breq)
	}
	if err != nil {
		writeFault(sw, fault.Wrap(fault.StageServe, fault.ErrInvalidInput, err, "decode request"))
		return
	}

	reqID := r.Header.Get(serve.HeaderRequestID)
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	sw.Header().Set(serve.HeaderRequestID, reqID)
	ctx := obs.WithRequestID(r.Context(), reqID)
	ctx = obs.WithTelemetry(ctx, c.cfg.Telemetry)
	// A caller-sent traceparent (another tier, a tracing client) makes the
	// proxy span a child of the caller's trace instead of a new root.
	if tc, ok := obs.ParseTraceparent(r.Header.Get(obs.HeaderTraceparent)); ok {
		ctx = obs.WithRemoteParent(ctx, tc)
	}
	var stages *obs.StageBreakdown
	if c.cfg.Telemetry.Enabled() {
		stages = &obs.StageBreakdown{}
		ctx = obs.WithStages(ctx, stages)
		defer func() { c.stages.Record(stages, reqID) }()
	}
	ctx, span := obs.StartSpan(ctx, "cluster.proxy")
	defer span.Arg("bench", breq.Bench).Arg("path", r.URL.Path).End()

	// finishTiming attributes everything the coordinator added on top of the
	// winning attempt's round trip — candidate ranking, failover backoffs,
	// hedge waits — to the proxy stage and sets the response timing header:
	// the replica's own stage breakdown with the proxy overhead appended.
	finishTiming := func(res *attemptResult) {
		if stages == nil {
			return
		}
		if overhead := time.Since(handlerStart) - res.dur; overhead > 0 {
			stages.Add(obs.StageProxy, overhead)
		}
		timing := res.header.Get(serve.HeaderTiming)
		if own := stages.TimingHeader(); own != "" {
			if timing != "" {
				timing += ", " + own
			} else {
				timing = own
			}
		}
		if timing != "" {
			sw.Header().Set(serve.HeaderTiming, timing)
		}
	}

	key := Digest(breq.Bench)
	res, stats := c.raceReplicas(ctx, c.candidates(key), r.URL.Path, body, reqID, key)
	c.met.failovers.Add(stats.failovers)
	c.met.hedges.Add(stats.hedges)
	if res != nil && res.err == nil && !retryable(res) {
		if res.hedged {
			c.met.hedgeWins.Add(1)
		}
		c.met.proxied.Add(1)
		span.Arg("replica", res.rep.url)
		copyHeader(sw.Header(), res.header, "Content-Type")
		copyHeader(sw.Header(), res.header, "Retry-After")
		// The replica's cache verdict passes through so clients observe
		// hit/miss/collapsed across the proxy: rendezvous sharding sends a
		// key to the same replica every time, which is exactly what makes
		// per-replica caches compose into one cluster-wide cache.
		copyHeader(sw.Header(), res.header, serve.HeaderCache)
		sw.Header().Set(HeaderReplica, res.rep.url)
		finishTiming(res)
		sw.WriteHeader(res.status)
		sw.Write(res.body)
		return
	}

	// Cluster-wide backpressure is not an outage: when the ladder's final
	// answer is a deliberate shed from a live replica, honor it — pass the
	// 503 and its hash-jittered Retry-After through verbatim instead of
	// absorbing the overload onto the coordinator's own CPU.
	if res != nil && res.err == nil && res.status == http.StatusServiceUnavailable {
		span.Arg("replica", res.rep.url).Arg("outcome", "shed")
		copyHeader(sw.Header(), res.header, "Content-Type")
		copyHeader(sw.Header(), res.header, "Retry-After")
		copyHeader(sw.Header(), res.header, serve.HeaderCache)
		sw.Header().Set(HeaderReplica, res.rep.url)
		finishTiming(res)
		sw.WriteHeader(res.status)
		sw.Write(res.body)
		return
	}

	// Every replica attempt failed (or none exist): the last rung is the
	// embedded nil-model ladder — degrade the answer rather than error it.
	if c.local != nil {
		c.met.localFallback.Add(1)
		c.logw(ctx, "all replicas failed; serving from local degradation ladder",
			"bench", breq.Bench, "failovers", stats.failovers)
		span.Arg("replica", "local")
		sw.Header().Set(HeaderReplica, "local")
		lr, lerr := http.NewRequestWithContext(ctx, http.MethodPost, r.URL.Path, bytes.NewReader(body))
		if lerr != nil {
			writeFault(sw, fault.Wrap(fault.StageServe, fault.ErrOverload, lerr, "local fallback"))
			return
		}
		lr.Header.Set("Content-Type", "application/json")
		lr.Header.Set(serve.HeaderRequestID, reqID)
		// The embedded server is in-process: with a shared Telemetry its spans
		// land in the same flight recorder, and the injected traceparent
		// parents them under this proxy span — no trailer round trip needed.
		obs.InjectTraceparent(ctx, lr.Header)
		c.local.ServeHTTP(sw, lr)
		return
	}
	var cause error
	if res != nil {
		cause = res.err
	}
	writeFault(sw, fault.Wrap(fault.StageServe, fault.ErrOverload, cause,
		"no replica available (%d attempts)", stats.failovers+1))
}

func copyHeader(dst, src http.Header, key string) {
	if v := src.Get(key); v != "" {
		dst.Set(key, v)
	}
}

// writeJSON mirrors the replica daemon's canonical response marshaling so a
// coordinator-originated body is indistinguishable in shape.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := serve.MarshalBody(v)
	if err != nil {
		http.Error(w, `{"error":{"kind":"internal","msg":"marshal failure"}}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// writeFault renders a typed fault in the daemon's error shape.
func writeFault(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, fault.ErrOverload):
		status = http.StatusServiceUnavailable
	case errors.Is(err, fault.ErrInvalidInput):
		status = http.StatusBadRequest
	case fault.IsTimeout(err):
		status = http.StatusGatewayTimeout
	}
	d := serve.ErrorDetail{Msg: err.Error()}
	if k := fault.KindOf(err); k != nil {
		d.Kind = k.Error()
	}
	if st, ok := fault.StageOf(err); ok {
		d.Stage = string(st)
	}
	if d.Kind == "" {
		d.Kind = "internal"
	}
	writeJSON(w, status, serve.ErrorBody{Error: d})
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

func (c *Coordinator) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	select {
	case <-c.drained:
		writeJSON(w, http.StatusServiceUnavailable, serve.ErrorBody{Error: serve.ErrorDetail{
			Kind: "draining", Msg: "coordinator is shutting down"}})
	default:
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ready\n")
	}
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		if err := c.reg.WritePrometheus(w); err != nil {
			c.logw(r.Context(), "metrics: prometheus write failed", "err", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, c.MetricsSnapshot())
}

// handleFlight serves the coordinator's flight recorder — which, because
// every traced proxy and shard attempt imports its replica's span summaries,
// renders as ONE merged Chrome trace spanning every process that touched a
// request: coordinator spans on the local pid, each replica's imported spans
// on a pid of their own, parent/child edges intact across the wire.
func (c *Coordinator) handleFlight(w http.ResponseWriter, r *http.Request) {
	rec := c.cfg.Telemetry.Recorder()
	if r.URL.Query().Get("format") == "trace" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		if err := c.cfg.Telemetry.WriteTrace(w); err != nil {
			c.logw(r.Context(), "flight: trace write failed", "err", err)
		}
		return
	}
	snap := serve.FlightSnapshot{Total: rec.Total(), Dropped: rec.Dropped(), Events: rec.Snapshot()}
	if snap.Events == nil {
		snap.Events = []obs.FlightEvent{}
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleSLO serves the coordinator's burn-rate engine: SLOReport JSON by
// default, Prometheus text with ?format=prom — the same contract the replica
// daemon serves at its /debug/slo.
func (c *Coordinator) handleSLO(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		if err := c.slo.WritePrometheus(w, "analogfold_cluster"); err != nil {
			c.logw(r.Context(), "slo: prometheus write failed", "err", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, c.slo.Report())
}

// logw logs through the configured logger with the request ID attached.
func (c *Coordinator) logw(ctx context.Context, msg string, args ...any) {
	lg := c.cfg.Logger
	if lg == nil {
		lg = c.cfg.Telemetry.Logger()
	}
	if rid := obs.RequestID(ctx); rid != "" {
		args = append(args, "request_id", rid)
	}
	lg.Info(msg, args...)
}

// Serve runs the coordinator on the listener until ctx is canceled, then
// drains: /readyz flips to 503, in-flight proxies get DrainTimeout to
// finish, probers stop, and outbound idle connections close — the goroutine
// set returns to its pre-Serve state (chaos-asserted).
func (c *Coordinator) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{Handler: c.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		c.stopProbers()
		return err
	case <-ctx.Done():
	}
	c.draining.Do(func() { close(c.drained) })
	dctx, cancel := context.WithTimeout(context.Background(), c.cfg.DrainTimeout)
	defer cancel()
	err := hs.Shutdown(dctx)
	if err != nil {
		hs.Close()
	}
	<-errc // http.ErrServerClosed
	c.stopProbers()
	return err
}

// stopProbers ends the health loops and closes idle outbound connections.
// Idempotent via the draining Once's channel double-close guard.
func (c *Coordinator) stopProbers() {
	select {
	case <-c.stopc:
	default:
		close(c.stopc)
	}
	c.wg.Wait()
	if t, ok := c.client.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// ListenAndServe binds addr and calls Serve.
func (c *Coordinator) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	c.logw(ctx, "analogfoldd coordinator listening", "addr", ln.Addr().String(),
		"replicas", len(c.replicas))
	return c.Serve(ctx, ln)
}
