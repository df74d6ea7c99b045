package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"time"

	"analogfold/internal/core"
	"analogfold/internal/dataset"
	"analogfold/internal/fault"
	"analogfold/internal/obs"
	"analogfold/internal/serve"
)

// Distributed dataset generation: the coordinator cuts the deterministic
// sample index space into shards (internal/dataset), leases each shard to a
// replica over POST /v1/dataset/shard, and journals completed shards in a
// crash-safe manifest. A lease is forfeited three ways — the replica dies
// (transport error or the health prober grades it down mid-lease), stalls
// past LeaseTTL, or returns bytes whose digest doesn't verify — and the shard
// is re-dispatched down the same rendezvous failover ladder the proxy path
// uses. Because every shard is a pure function of its spec, re-dispatch and
// even double-execution are harmless: the digest check makes results
// interchangeable, so no sample can be lost or duplicated. The accounting
// invariant, chaos-asserted at quiescence, is
//
//	dispatched == completed + redispatched
//
// every launch (first attempt, failover, hedge, local fallback) is dispatched;
// every launch after a shard's first is redispatched; every shard completes
// exactly once.

// DatasetRequest is the body of POST /v1/dataset: one distributed generation
// job. Samples is required; zero-valued knobs inherit the coordinator's (and
// dataset package's) defaults.
type DatasetRequest struct {
	Bench          string  `json:"bench"`
	Samples        int     `json:"samples"`
	Seed           int64   `json:"seed,omitempty"`
	ShardSize      int     `json:"shard_size,omitempty"`
	CMax           float64 `json:"c_max,omitempty"`
	IncludeUniform bool    `json:"include_uniform"`
}

// shardAttempt is one lease attempt's outcome.
type shardAttempt struct {
	rep     *replica
	sr      *dataset.ShardResult
	err     error
	hedged  bool
	expired bool // lease TTL elapsed or heartbeat graded the holder down
	corrupt bool // replica answered, but the bytes failed digest verification
}

// heartbeatTick is how often a lease watcher re-reads its holder's prober
// state; capped low so chaos tests with fast probers see expiry promptly.
func (c *Coordinator) heartbeatTick() time.Duration {
	d := c.cfg.ProbeInterval / 4
	if d < 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}

// attemptShard leases one shard to one replica: POST the spec, await the
// labeled bytes within LeaseTTL, verify the digest. The lease context is
// additionally canceled the moment the health prober grades the holder down —
// the prober is the heartbeat, so a dead replica forfeits its lease at probe
// granularity instead of stalling the job for the full TTL.
func (c *Coordinator) attemptShard(ctx context.Context, rep *replica, body []byte, want dataset.ShardSpec, hedged bool, out chan<- *shardAttempt) {
	lctx, cancel := context.WithTimeoutCause(ctx, c.cfg.LeaseTTL,
		fault.New(fault.StageServe, fault.ErrLeaseExpired, "lease TTL %s elapsed", c.cfg.LeaseTTL))
	defer cancel()
	wctx, wcancel := context.WithCancelCause(lctx)
	defer wcancel(nil)
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		t := time.NewTicker(c.heartbeatTick())
		defer t.Stop()
		for {
			select {
			case <-wctx.Done():
				return
			case <-t.C:
				if rep.getState() == stateDown {
					wcancel(fault.New(fault.StageServe, fault.ErrLeaseExpired,
						"heartbeat: replica %s graded down mid-lease", rep.url))
					return
				}
			}
		}
	}()
	res := c.doShardRequest(wctx, rep, body, want, hedged)
	wcancel(nil)
	<-watchDone
	if res.err != nil {
		// Attribute the failure: a cause planted by the TTL or the heartbeat
		// watcher means the lease expired (as opposed to a crash or shed).
		cause := context.Cause(wctx)
		if cause != nil && errors.Is(cause, fault.ErrLeaseExpired) {
			res.err = cause
			res.expired = true
		}
	}
	out <- res
}

// doShardRequest is the transport half of a lease attempt. Each attempt is a
// span under the job's cluster.dataset span, and the outbound request carries
// the job's request ID plus the attempt span's traceparent — so a shard
// re-dispatched after lease expiry still logs and traces under the request ID
// the coordinator minted when the job arrived.
func (c *Coordinator) doShardRequest(ctx context.Context, rep *replica, body []byte, want dataset.ShardSpec, hedged bool) *shardAttempt {
	ctx, span := obs.StartSpan(ctx, "cluster.shard.attempt")
	span.Arg("replica", rep.url).Arg("shard", want.Index).Arg("hedged", hedged)
	defer span.End()
	rep.requests.Add(1)
	if hedged {
		rep.hedges.Add(1)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.url+"/v1/dataset/shard", bytes.NewReader(body))
	if err != nil {
		return &shardAttempt{rep: rep, err: err, hedged: hedged}
	}
	req.Header.Set("Content-Type", "application/json")
	if rid := obs.RequestID(ctx); rid != "" {
		req.Header.Set(serve.HeaderRequestID, rid)
	}
	obs.InjectTraceparent(ctx, req.Header)
	resp, err := c.client.Do(req)
	if err != nil {
		// A loser canceled because a sibling won must not poison the
		// replica's health record — it said nothing about this replica.
		if ctx.Err() != nil && errors.Is(err, context.Canceled) {
			return &shardAttempt{rep: rep, err: err, hedged: hedged}
		}
		rep.markFailure(true)
		return &shardAttempt{rep: rep, err: err, hedged: hedged}
	}
	b, rerr := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	resp.Body.Close()
	if rerr != nil {
		if !(ctx.Err() != nil && errors.Is(rerr, context.Canceled)) {
			rep.markFailure(true)
		}
		return &shardAttempt{rep: rep, err: rerr, hedged: hedged}
	}
	// Body fully read → trailers are in; merge the replica's span export so
	// shard labeling shows up in the coordinator's merged trace even when the
	// lease was later forfeited or lost a redispatch race.
	c.importTrailerSpans(resp.Trailer.Get(serve.TrailerSpans), resp.Trailer.Get(serve.TrailerClock), rep.url)
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode >= http.StatusInternalServerError {
			rep.markFailure(false)
		}
		return &shardAttempt{rep: rep, hedged: hedged, err: fault.New(fault.StageServe,
			shardStatusKind(resp.StatusCode), "replica %s: shard %d: HTTP %d", rep.url, want.Index, resp.StatusCode)}
	}
	var sr dataset.ShardResult
	if err := json.Unmarshal(b, &sr); err != nil {
		rep.markFailure(false)
		return &shardAttempt{rep: rep, hedged: hedged, corrupt: true,
			err: fault.Wrap(fault.StageServe, fault.ErrShardCorrupt, err, "replica %s: shard %d", rep.url, want.Index)}
	}
	// Trust nothing off the wire: the spec must be the one leased and the
	// digest must verify. A corrupt answer is retryable — the next replica
	// recomputes the identical bytes.
	if sr.Spec() != want {
		rep.markFailure(false)
		return &shardAttempt{rep: rep, hedged: hedged, corrupt: true,
			err: fault.New(fault.StageServe, fault.ErrShardCorrupt,
				"replica %s answered shard %v, leased %v", rep.url, sr.Spec(), want)}
	}
	if err := sr.Verify(); err != nil {
		rep.markFailure(false)
		return &shardAttempt{rep: rep, hedged: hedged, corrupt: true, err: err}
	}
	rep.markSuccess()
	// Deliberately no c.lat.Observe here: shard labeling is minutes-scale
	// batch work and would blow up the guidance path's adaptive hedge budget.
	return &shardAttempt{rep: rep, sr: &sr, hedged: hedged}
}

// shardStatusKind maps a replica's non-200 shard answer to a fault kind.
func shardStatusKind(status int) error {
	switch status {
	case http.StatusServiceUnavailable:
		return fault.ErrOverload
	case http.StatusBadRequest:
		return fault.ErrInvalidInput
	default:
		return fault.ErrExhausted
	}
}

// leaseShard drives one shard down its failover ladder: lease the best
// candidate, re-dispatch on expiry/crash/corruption with the standard
// decorrelated backoff, hedge once the shard has been in flight for half a
// TTL, first verified result wins. When the ladder is exhausted the embedded
// local server labels the shard itself — the cluster ladder's last rung —
// and only with no local fallback does the job fail.
func (c *Coordinator) leaseShard(ctx context.Context, shardKey uint64, body []byte, sp dataset.ShardSpec) (*dataset.ShardResult, error) {
	cands := c.candidates(shardKey)
	launches := 0
	dispatch := func() {
		c.met.dsDispatched.Add(1)
		if launches > 0 {
			c.met.dsRedispatched.Add(1)
		}
		launches++
	}
	var last *shardAttempt
	if len(cands) > 0 {
		rctx, cancel := context.WithCancel(ctx)
		results := make(chan *shardAttempt, len(cands))
		next, inflight := 0, 0
		var failovers int64
		launch := func(hedged bool) {
			rep := cands[next]
			next++
			inflight++
			dispatch()
			go c.attemptShard(rctx, rep, body, sp, hedged, results)
		}
		launch(false)
		hedge := time.NewTimer(c.cfg.LeaseTTL / 2)
	race:
		for {
			select {
			case res := <-results:
				inflight--
				if res.sr != nil {
					cancel()
					hedge.Stop()
					c.met.dsCompleted.Add(1)
					// Drain stragglers in the background: the channel is
					// buffered to the ladder, so losers can always send.
					return res.sr, nil
				}
				last = res
				if res.expired {
					c.met.dsExpired.Add(1)
					c.logw(ctx, "shard lease expired", "shard", sp.Index, "replica", res.rep.url)
				}
				if res.corrupt {
					c.met.dsCorrupt.Add(1)
				}
				if errors.Is(res.err, context.Canceled) && ctx.Err() != nil {
					break race // the job itself was canceled
				}
				if next < len(cands) {
					failovers++
					if !sleepCtx(rctx, failoverBackoff(c.cfg.RetryBackoff, failovers, shardKey)) {
						break race
					}
					launch(false)
				} else if inflight == 0 {
					break race
				}
			case <-hedge.C:
				if next < len(cands) && int(failovers) < len(cands) {
					// A hedge is a redispatch too: the slow holder keeps its
					// lease, but the next candidate starts computing the same
					// shard — first verified digest wins.
					launch(true)
					hedge.Reset(c.cfg.LeaseTTL / 2)
				}
			case <-rctx.Done():
				break race
			}
		}
		cancel()
		hedge.Stop()
	}
	if err := ctx.Err(); err != nil {
		return nil, fault.FromContext(fault.StageServe, err)
	}

	// Ladder exhausted: label locally, or fail the job with the last cause.
	if c.cfg.Local != nil {
		var req serve.ShardRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, fault.Wrap(fault.StageServe, fault.ErrInvalidInput, err, "shard request")
		}
		dispatch()
		c.met.dsLocal.Add(1)
		sr, err := c.cfg.Local.GenerateShardLocal(ctx, req)
		if err != nil {
			return nil, err
		}
		c.met.dsCompleted.Add(1)
		return sr, nil
	}
	var cause error
	if last != nil {
		cause = last.err
	}
	return nil, fault.Wrap(fault.StageServe, fault.ErrExhausted, cause,
		"shard %d [%d,%d): every replica failed (%d launches)", sp.Index, sp.Lo, sp.Hi, launches)
}

// shardKeyFor decorrelates per-shard rendezvous keys from the job key, so a
// job's shards spread across the replica set instead of all landing on the
// benchmark's affinity replica.
func shardKeyFor(jobKey uint64, index int) uint64 {
	return obs.Mix64(jobKey ^ (uint64(index)+1)*0x9e3779b97f4a7c15)
}

// GenerateDataset runs one distributed generation job: shard the index space,
// lease every shard across the replica set, journal completions in the
// manifest (when DatasetDir is set), merge. A coordinator restarted mid-job
// replays the journal and only leases the missing or corrupt shards; the
// merged corpus is bit-identical to an uninterrupted — or single-process —
// run.
func (c *Coordinator) GenerateDataset(ctx context.Context, req DatasetRequest) (*dataset.Dataset, *dataset.ResumeReport, error) {
	if req.Samples <= 0 {
		return nil, nil, fault.New(fault.StageServe, fault.ErrInvalidInput,
			"dataset job: samples = %d, want > 0", req.Samples)
	}
	ckt, prof, err := core.ParseBenchmark(req.Bench)
	if err != nil {
		return nil, nil, fault.Wrap(fault.StageServe, fault.ErrInvalidInput, err, "bench %q", req.Bench)
	}
	if req.ShardSize <= 0 {
		req.ShardSize = c.cfg.DatasetShardSize
	}
	jobKey := core.NetlistDigest(ckt, prof)
	cfg := dataset.Config{
		Samples: req.Samples, Seed: req.Seed, CMax: req.CMax,
		IncludeUniform: req.IncludeUniform, ShardSize: req.ShardSize,
	}
	dir := ""
	if c.cfg.DatasetDir != "" {
		dir = filepath.Join(c.cfg.DatasetDir,
			fmt.Sprintf("%s_%s_s%d_n%d", ckt.Name, prof, req.Seed, req.Samples))
	}
	c.met.dsJobs.Add(1)
	exec := func(ectx context.Context, sp dataset.ShardSpec) (*dataset.ShardResult, error) {
		body, err := json.Marshal(serve.ShardRequest{
			Bench: req.Bench, Samples: req.Samples, Index: sp.Index, Lo: sp.Lo, Hi: sp.Hi,
			Seed: req.Seed, CMax: req.CMax, IncludeUniform: req.IncludeUniform,
		})
		if err != nil {
			return nil, err
		}
		return c.leaseShard(ectx, shardKeyFor(jobKey, sp.Index), body, sp)
	}
	ds, rep, err := dataset.GenerateResumable(ctx, ckt.Name, len(ckt.Nets), cfg, dir, exec)
	if err != nil {
		return nil, nil, err
	}
	c.met.dsResumed.Add(int64(rep.Resumed))
	return ds, rep, nil
}

// HeaderResumed reports, on a /v1/dataset answer, how many of the job's
// shards were satisfied from the manifest journal instead of being leased.
const HeaderResumed = "X-Analogfold-Shards-Resumed"

// handleDataset serves POST /v1/dataset: run the distributed job and answer
// with the dataset's canonical Save bytes — the same bytes a single-process
// `analogfold dataset` run writes, so fetching through the cluster and
// generating locally produce byte-identical files. Deliberately separate from
// handleWork's accepted/answered/shed accounting: dataset jobs are
// minutes-scale batch work with their own reconciliation invariant.
func (c *Coordinator) handleDataset(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		serve.RespondJSON(w, http.StatusMethodNotAllowed, serve.ErrorBody{Error: serve.ErrorDetail{
			Kind: "method not allowed", Msg: "use POST"}})
		return
	}
	var req DatasetRequest
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err == nil {
		err = json.Unmarshal(body, &req)
	}
	if err != nil {
		serve.RespondError(w, fault.Wrap(fault.StageServe, fault.ErrInvalidInput, err, "decode request"), 0)
		return
	}
	reqID := r.Header.Get(serve.HeaderRequestID)
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	w.Header().Set(serve.HeaderRequestID, reqID)
	ctx := obs.WithRequestID(r.Context(), reqID)
	ctx = obs.WithTelemetry(ctx, c.cfg.Telemetry)
	if tc, ok := obs.ParseTraceparent(r.Header.Get(obs.HeaderTraceparent)); ok {
		ctx = obs.WithRemoteParent(ctx, tc)
	}
	ctx, span := obs.StartSpan(ctx, "cluster.dataset")
	defer span.Arg("bench", req.Bench).End()

	ds, rep, err := c.GenerateDataset(ctx, req)
	if err != nil {
		serve.RespondError(w, err, 0)
		return
	}
	out, err := ds.Marshal()
	if err != nil {
		serve.RespondError(w, fault.Wrap(fault.StageServe, fault.ErrInvalidInput, err, "marshal dataset"), 0)
		return
	}
	span.Arg("shards", rep.Shards).Arg("resumed", rep.Resumed)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(HeaderResumed, obs.Itoa(int64(rep.Resumed)))
	w.WriteHeader(http.StatusOK)
	w.Write(out)
}
