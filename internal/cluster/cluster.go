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
//  5. Local degradation. When every replica has failed (a 503 shed on the
//     last rung is passed through instead), the coordinator answers from an
//     embedded nil-model serve.Server — the elite→uniform→MagicalRoute
//     ladder of PR 2 — so a full replica outage degrades the answer instead
//     of erroring it.
//
// Dataset shard leases (datagen.go) run down the same ladder through the
// same race and HTTP attempt; only the hedge budget, the hedge cap and the
// accept rule differ.
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
	// the engine off.
	SLOLatency      time.Duration
	SLOAvailability float64
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
	ops      serve.Ops
	lat      obs.Histogram // proxy latencies behind the adaptive hedge budget
	// front is the work endpoints' request front; dsFront /v1/dataset's,
	// which keeps dataset jobs out of the proxy path's SLO and stages.
	front, dsFront serve.Front

	stopc chan struct{}
	wg    sync.WaitGroup
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
		cfg:    cfg,
		client: &http.Client{Transport: tr},
		stopc:  make(chan struct{}),
	}
	slo := obs.NewSLO(obs.SLOConfig{LatencyTarget: cfg.SLOLatency, Availability: cfg.SLOAvailability})
	slo.Register(reg, "analogfold_cluster")
	c.ops = serve.Ops{Registry: reg, Telemetry: cfg.Telemetry, SLO: slo, SLOPrefix: "analogfold_cluster",
		Drained: make(chan struct{}), DrainTimeout: cfg.DrainTimeout, Log: c.logw}
	c.front = serve.Front{Telemetry: cfg.Telemetry, SLO: slo,
		Stages: obs.NewStageMetrics(reg, "analogfold_cluster")}
	c.dsFront = serve.Front{Telemetry: cfg.Telemetry}
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
// a replica exposes, with the same ops handlers, so clients and load
// balancers cannot tell the tiers apart.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/guidance", c.handleWork)
	mux.HandleFunc("/v1/route", c.handleWork)
	mux.HandleFunc("/v1/dataset", c.handleDataset)
	c.ops.Mount(mux)
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

	// Dataset leases only: the decoded, verified shard, and whether the
	// replica answered bytes that failed verification.
	sr      *dataset.ShardResult
	corrupt bool
}

// retryable reports whether the ladder should move on: transport errors,
// attempt timeouts, replica sheds (503, including drain) and 5xx crashes all
// fail over; 2xx and client errors are final.
func retryable(res *attemptResult) bool {
	return res.err != nil || res.status >= http.StatusInternalServerError
}

// maxResponseBytes bounds a replica's answer body (guidance sets are ~100KB;
// 8MB is generous headroom, not a DoS surface).
const maxResponseBytes = 8 << 20

// post is one HTTP attempt at one replica, for both the proxy path and
// dataset leases: it POSTs body to rep's path and reads the answer. Each
// attempt — winner, hedged loser, failover retry — is a span of its own
// (named by the caller, args are extra span key/value pairs) under the
// request's span; the outbound request carries the request ID and the
// attempt span's traceparent, so replica-side spans merge into the
// coordinator trace as children of the exact attempt that triggered them.
// Transport and read errors grade the replica down and a 5xx counts as a
// failure, except for a loser canceled because a sibling won: that said
// nothing about its replica. Success bookkeeping is the caller's, since what
// counts as a good answer differs per endpoint.
func (c *Coordinator) post(ctx context.Context, span string, rep *replica, path string, body []byte, hedged bool, args ...any) *attemptResult {
	ctx, sp := obs.StartSpan(ctx, span)
	sp.Arg("replica", rep.url).Arg("hedged", hedged)
	for i := 0; i+1 < len(args); i += 2 {
		key, _ := args[i].(string)
		sp.Arg(key, args[i+1])
	}
	defer sp.End()
	rep.requests.Add(1)
	if hedged {
		rep.hedges.Add(1)
	}
	res := &attemptResult{rep: rep, hedged: hedged}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.url+path, bytes.NewReader(body))
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	if rid := obs.RequestID(ctx); rid != "" {
		req.Header.Set(serve.HeaderRequestID, rid)
	}
	obs.InjectTraceparent(ctx, req.Header)
	start := time.Now()
	resp, err := c.client.Do(req)
	var b []byte
	if err == nil {
		// A connection that dies mid-body fails over like a transport error:
		// the client must never see a truncated answer.
		b, err = io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
		resp.Body.Close()
	}
	if err != nil {
		if !(ctx.Err() != nil && errors.Is(err, context.Canceled)) {
			rep.markFailure(true)
		}
		res.err = err
		return res
	}
	// The body is fully read, so any announced trailers are in. Merging here
	// — not at the winner-selection point — is what lands hedged losers',
	// failed-over attempts' and forfeited leases' replica-side spans in the
	// coordinator trace too.
	c.importTrailerSpans(resp.Trailer.Get(serve.TrailerSpans), resp.Trailer.Get(serve.TrailerClock), rep.url)
	if resp.StatusCode >= http.StatusInternalServerError {
		rep.markFailure(false)
	}
	sp.Arg("status", resp.StatusCode)
	res.status, res.header, res.body, res.dur = resp.StatusCode, resp.Header, b, time.Since(start)
	return res
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

// raceStats is one race's launch accounting.
type raceStats struct {
	launches  int64 // every attempt started, hedges included
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

// race runs one request down its failover ladder; it is the one replica
// race behind both the proxy path and dataset shard leases. try makes one
// attempt. A result accept rejects fails over to the next candidate after a
// decorrelated backoff; each time hedgeDelay elapses a hedge launches at the
// next candidate, at most maxHedges in all. The first accepted result wins
// and cancels every other in-flight attempt. accept sees every result the
// race receives, in arrival order, so callers count rejections there. The
// results channel is buffered to the ladder, so attempts can never block or
// leak past the race. race returns the winner, else the last rejected result
// — nil only for an empty ladder.
func (c *Coordinator) race(ctx context.Context, cands []*replica, key uint64,
	hedgeDelay func() time.Duration, maxHedges int,
	try func(ctx context.Context, rep *replica, hedged bool) *attemptResult,
	accept func(*attemptResult) bool) (*attemptResult, raceStats) {
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
		stats.launches++
		go func() { results <- try(rctx, rep, hedged) }()
	}
	launch(false)
	hedge := time.NewTimer(hedgeDelay())
	defer hedge.Stop()
	var last *attemptResult
	for {
		select {
		case res := <-results:
			inflight--
			if accept(res) {
				return res, stats
			}
			last = res
			if errors.Is(res.err, context.Canceled) && ctx.Err() != nil {
				// The caller went away; nothing left to win.
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
			if next < len(cands) && stats.hedges < int64(maxHedges) {
				// The slow attempt keeps running; the next candidate starts on
				// the same work. Re-arm: a further budget elapsing may launch
				// the next hedge.
				stats.hedges++
				launch(true)
				hedge.Reset(hedgeDelay())
			}
		case <-rctx.Done():
			if last == nil {
				last = &attemptResult{err: rctx.Err()}
			}
			return last, stats
		}
	}
}

// handleWork is the proxy path for both work endpoints.
func (c *Coordinator) handleWork(w http.ResponseWriter, r *http.Request) {
	c.met.accepted.Add(1)
	status := 0
	defer func() {
		// Every accepted request is accounted exactly once: a 503 of any
		// provenance (replica shed passthrough, local-fallback shed, full
		// outage with no fallback) is a shed, everything else an answer.
		if status == http.StatusServiceUnavailable {
			c.met.shed.Add(1)
		} else {
			c.met.answered.Add(1)
		}
	}()
	var breq struct {
		Bench string `json:"bench"`
	}
	status = c.front.Serve(w, r, &breq, func(w http.ResponseWriter, r *http.Request, body []byte) {
		start := time.Now()
		ctx, span := obs.StartSpan(r.Context(), "cluster.proxy")
		defer span.Arg("bench", breq.Bench).Arg("path", r.URL.Path).End()
		stages := obs.StagesFrom(ctx)

		// finishTiming attributes everything the coordinator added on top of the
		// winning attempt's round trip — candidate ranking, failover backoffs,
		// hedge waits — to the proxy stage and sets the response timing header:
		// the replica's own stage breakdown with the proxy overhead appended.
		finishTiming := func(res *attemptResult) {
			if stages == nil {
				return
			}
			if overhead := time.Since(start) - res.dur; overhead > 0 {
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
				w.Header().Set(serve.HeaderTiming, timing)
			}
		}

		// Each proxied attempt gets AttemptTimeout. Any answer below 500 is good
		// evidence of the replica's health and feeds the adaptive hedge budget.
		try := func(ctx context.Context, rep *replica, hedged bool) *attemptResult {
			ctx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
			defer cancel()
			res := c.post(ctx, "cluster.attempt", rep, r.URL.Path, body, hedged)
			if res.err == nil && res.status < http.StatusInternalServerError {
				rep.markSuccess()
				c.lat.Observe(res.dur)
			}
			return res
		}
		key := Digest(breq.Bench)
		res, stats := c.race(ctx, c.candidates(key), key, c.hedgeDelay, c.cfg.MaxHedges, try,
			func(res *attemptResult) bool { return !retryable(res) })
		c.met.failovers.Add(stats.failovers)
		c.met.hedges.Add(stats.hedges)
		// A replica's final answer (2xx, 4xx) is forwarded verbatim. So is a
		// deliberate shed as the ladder's last word: cluster-wide backpressure is
		// not an outage, so the 503 and its hash-jittered Retry-After pass through
		// instead of the overload landing on the coordinator's own CPU.
		if res != nil && res.err == nil && (!retryable(res) || res.status == http.StatusServiceUnavailable) {
			if res.status == http.StatusServiceUnavailable {
				span.Arg("outcome", "shed")
			} else {
				c.met.proxied.Add(1)
				if res.hedged {
					c.met.hedgeWins.Add(1)
				}
			}
			span.Arg("replica", res.rep.url)
			copyHeader(w.Header(), res.header, "Content-Type")
			copyHeader(w.Header(), res.header, "Retry-After")
			// The replica's cache verdict passes through so clients observe
			// hit/miss/collapsed across the proxy: rendezvous sharding sends a
			// key to the same replica every time, which is exactly what makes
			// per-replica caches compose into one cluster-wide cache.
			copyHeader(w.Header(), res.header, serve.HeaderCache)
			w.Header().Set(HeaderReplica, res.rep.url)
			finishTiming(res)
			w.WriteHeader(res.status)
			w.Write(res.body)
			return
		}

		// Every replica attempt failed — transport errors, timeouts, or a 5xx
		// other than a shed on the last rung — or none exist: the last rung is
		// the embedded nil-model ladder — degrade the answer rather than error it.
		if c.local != nil {
			c.met.localFallback.Add(1)
			c.logw(ctx, "all replicas failed; serving from local degradation ladder",
				"bench", breq.Bench, "failovers", stats.failovers)
			span.Arg("replica", "local")
			w.Header().Set(HeaderReplica, "local")
			lr, lerr := http.NewRequestWithContext(ctx, http.MethodPost, r.URL.Path, bytes.NewReader(body))
			if lerr != nil {
				serve.RespondError(w, fault.Wrap(fault.StageServe, fault.ErrOverload, lerr, "local fallback"), 0)
				return
			}
			lr.Header.Set("Content-Type", "application/json")
			lr.Header.Set(serve.HeaderRequestID, obs.RequestID(ctx))
			// The embedded server is in-process: with a shared Telemetry its spans
			// land in the same flight recorder, and the injected traceparent
			// parents them under this proxy span — no trailer round trip needed.
			obs.InjectTraceparent(ctx, lr.Header)
			c.local.ServeHTTP(w, lr)
			return
		}
		var cause error
		if res != nil {
			cause = res.err
		}
		serve.RespondError(w, fault.Wrap(fault.StageServe, fault.ErrOverload, cause,
			"no replica available (%d attempts)", stats.failovers+1), 0)
	})
}

func copyHeader(dst, src http.Header, key string) {
	if v := src.Get(key); v != "" {
		dst.Set(key, v)
	}
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
// drains (serve.Ops.Serve): /readyz flips to 503 and in-flight proxies get
// DrainTimeout to finish. Then probers stop and outbound idle connections
// close — the goroutine set returns to its pre-Serve state (chaos-asserted).
func (c *Coordinator) Serve(ctx context.Context, ln net.Listener) error {
	defer c.stopProbers()
	return c.ops.Serve(ctx, ln, c.Handler(), nil)
}

// stopProbers ends the health loops and closes idle outbound connections.
// Idempotent: a closed stopc is not closed again.
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
