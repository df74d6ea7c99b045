package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
// is re-dispatched down its rendezvous failover ladder by the same race (and
// the same HTTP attempt) the proxy path runs; only the lease policy differs.
// Because every shard is a pure function of its spec, re-dispatch and
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

// leaseAttempt leases one shard to one replica: POST the spec, await the
// labeled bytes within LeaseTTL, decode them and verify the spec and digest.
// The lease context is additionally canceled the moment the health prober
// grades the holder down — the prober is the heartbeat, so a dead replica
// forfeits its lease at probe granularity instead of stalling the job for the
// full TTL. The attempt carries the job's request ID, so a shard re-dispatched
// after lease expiry still logs and traces under the ID the coordinator minted
// when the job arrived. Only a verified shard counts as the replica's success;
// shard labeling is minutes-scale batch work, so it never feeds the proxy
// path's adaptive hedge budget.
func (c *Coordinator) leaseAttempt(ctx context.Context, rep *replica, body []byte, want dataset.ShardSpec, hedged bool) *attemptResult {
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
	res := c.post(wctx, "cluster.shard.attempt", rep, "/v1/dataset/shard", body, hedged, "shard", want.Index)
	switch {
	case res.err != nil:
	case res.status != http.StatusOK:
		res.err = fault.New(fault.StageServe, shardStatusKind(res.status),
			"replica %s: shard %d: HTTP %d", rep.url, want.Index, res.status)
	default:
		// Trust nothing off the wire: the spec must be the one leased and the
		// digest must verify. A corrupt answer is retryable — the next replica
		// recomputes the identical bytes.
		var sr dataset.ShardResult
		if err := json.Unmarshal(res.body, &sr); err != nil {
			res.err = fault.Wrap(fault.StageServe, fault.ErrShardCorrupt, err, "replica %s: shard %d", rep.url, want.Index)
		} else if sr.Spec() != want {
			res.err = fault.New(fault.StageServe, fault.ErrShardCorrupt,
				"replica %s answered shard %v, leased %v", rep.url, sr.Spec(), want)
		} else {
			res.err = sr.Verify()
		}
		if res.err != nil {
			res.corrupt = true
			rep.markFailure(false)
		} else {
			rep.markSuccess()
			res.sr = &sr
		}
	}
	wcancel(nil)
	<-watchDone
	// Attribute a failure: a cause planted by the TTL or the heartbeat
	// watcher means the lease expired (as opposed to a crash or shed).
	if cause := context.Cause(wctx); res.err != nil && errors.Is(cause, fault.ErrLeaseExpired) {
		res.err = cause
	}
	return res
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

// leaseShard drives one shard down its failover ladder through the race the
// proxy path uses, with the lease policy: hedge once the shard has been in
// flight for half a TTL (up to one hedge per rung), and accept only a
// verified result. Expired and corrupt leases are counted as the race
// receives them. When the ladder is exhausted the embedded local server
// labels the shard itself — the cluster ladder's last rung — and only with
// no local fallback does the job fail.
func (c *Coordinator) leaseShard(ctx context.Context, shardKey uint64, body []byte, sp dataset.ShardSpec) (*dataset.ShardResult, error) {
	cands := c.candidates(shardKey)
	res, stats := c.race(ctx, cands, shardKey,
		func() time.Duration { return c.cfg.LeaseTTL / 2 }, len(cands),
		func(ctx context.Context, rep *replica, hedged bool) *attemptResult {
			return c.leaseAttempt(ctx, rep, body, sp, hedged)
		},
		func(res *attemptResult) bool {
			if res.sr != nil {
				return true
			}
			if errors.Is(res.err, fault.ErrLeaseExpired) {
				c.met.dsExpired.Add(1)
				c.logw(ctx, "shard lease expired", "shard", sp.Index, "replica", res.rep.url)
			}
			if res.corrupt {
				c.met.dsCorrupt.Add(1)
			}
			return false
		})
	c.met.dsDispatched.Add(stats.launches)
	c.met.dsRedispatched.Add(max(stats.launches-1, 0))
	if res != nil && res.sr != nil {
		c.met.dsCompleted.Add(1)
		return res.sr, nil
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
		c.met.dsDispatched.Add(1)
		if stats.launches > 0 {
			c.met.dsRedispatched.Add(1)
		}
		c.met.dsLocal.Add(1)
		sr, err := c.cfg.Local.GenerateShardLocal(ctx, req)
		if err != nil {
			return nil, err
		}
		c.met.dsCompleted.Add(1)
		return sr, nil
	}
	var cause error
	if res != nil {
		cause = res.err
	}
	return nil, fault.Wrap(fault.StageServe, fault.ErrExhausted, cause,
		"shard %d [%d,%d): every replica failed (%d launches)", sp.Index, sp.Lo, sp.Hi, stats.launches)
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
	var req DatasetRequest
	c.dsFront.Serve(w, r, &req, func(w http.ResponseWriter, r *http.Request, _ []byte) {
		ctx, span := obs.StartSpan(r.Context(), "cluster.dataset")
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
	})
}
