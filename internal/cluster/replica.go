package cluster

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"analogfold/internal/obs"
	"analogfold/internal/serve"
)

// replicaState is the coordinator's view of one replica's serviceability,
// refreshed actively by the prober and passively by proxy outcomes.
type replicaState int32

const (
	// stateUp: /readyz answered 200 and the last scrape looked healthy.
	stateUp replicaState = iota
	// stateDegraded: serving, but its /metrics scrape shows the circuit
	// breaker open or a deep admission queue — route around it when a better
	// replica exists, but keep it in the ladder.
	stateDegraded
	// stateDown: /readyz refused (draining) or the transport failed
	// (crashed, unreachable). Skipped until a probe restores it.
	stateDown
)

func (s replicaState) String() string {
	switch s {
	case stateDegraded:
		return "degraded"
	case stateDown:
		return "down"
	default:
		return "up"
	}
}

// replica is one backend daemon: its base URL, identity hash for rendezvous
// scoring, health state and request accounting. All fields the proxy path
// touches are atomics — routing never takes a lock.
type replica struct {
	url  string
	hash uint64

	state      atomic.Int32
	consecFail atomic.Int64

	// accounting (exported per-replica in /metrics)
	requests  atomic.Int64 // attempts launched at this replica (incl. hedges)
	failures  atomic.Int64 // transport errors, timeouts, 5xx
	hedges    atomic.Int64 // attempts launched as hedges
	probes    atomic.Int64 // health probes sent
	lastQueue atomic.Int64 // queue depth from the last /metrics scrape
	breaker   atomic.Int32 // 0 closed, 1 half-open, 2 open (last scrape)
}

func newReplica(rawURL string) *replica {
	u := strings.TrimRight(strings.TrimSpace(rawURL), "/")
	return &replica{url: u, hash: obs.FNV64aString(u)}
}

func (r *replica) getState() replicaState { return replicaState(r.state.Load()) }
func (r *replica) setState(s replicaState) {
	r.state.Store(int32(s))
}

// markFailure records a proxy-path failure. A transport-level failure means
// the process is unreachable: route around it immediately rather than feeding
// it more requests until the next probe tick.
func (r *replica) markFailure(transport bool) {
	r.failures.Add(1)
	r.consecFail.Add(1)
	if transport {
		r.setState(stateDown)
	}
}

// markSuccess passively restores a replica the prober hasn't caught up with
// yet: a served request is better evidence than a stale probe.
func (r *replica) markSuccess() {
	r.consecFail.Store(0)
	if r.getState() == stateDown {
		r.setState(stateUp)
	}
}

// probe refreshes one replica's health: /readyz decides up vs down, and for
// live replicas a /metrics scrape grades load (admission queue depth) and
// model health (breaker state) into the degraded tier.
func (c *Coordinator) probe(r *replica) {
	r.probes.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
	defer cancel()
	if !c.getOK(ctx, r, "/readyz") {
		r.setState(stateDown)
		return
	}
	r.consecFail.Store(0)
	state := stateUp
	if h, ok := c.scrapeHealth(ctx, r); ok {
		r.lastQueue.Store(h.QueueDepth)
		r.breaker.Store(h.Breaker)
		if h.BreakerOpen() || h.QueueDepth >= c.cfg.BusyQueueDepth {
			state = stateDegraded
		}
	}
	r.setState(state)
}

// getOK issues a GET and reports whether it answered 200.
func (c *Coordinator) getOK(ctx context.Context, r *replica, path string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url+path, nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// scrapeHealth fetches the replica's /metrics JSON and reads its queue
// depth and breaker state for health grading.
func (c *Coordinator) scrapeHealth(ctx context.Context, r *replica) (serve.Health, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url+"/metrics", nil)
	if err != nil {
		return serve.Health{}, false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return serve.Health{}, false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil || resp.StatusCode != http.StatusOK {
		return serve.Health{}, false
	}
	return serve.ParseHealth(body)
}

// probeLoop drives one replica's health refresh until the coordinator drains.
func (c *Coordinator) probeLoop(r *replica) {
	defer c.wg.Done()
	c.probe(r)
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stopc:
			return
		case <-t.C:
			c.probe(r)
		}
	}
}
