package cluster

import (
	"sync/atomic"

	"analogfold/internal/obs"
)

// metrics is the coordinator's own accounting. The load-bearing invariant —
// chaos-asserted — is accepted == answered + shed: every request that enters
// handleWork leaves it counted exactly once, no matter which rung answered
// it or how many replicas died underneath it.
type metrics struct {
	accepted atomic.Int64 // requests entering handleWork
	answered atomic.Int64 // non-503 final statuses (incl. local fallback, 4xx)
	shed     atomic.Int64 // 503 final statuses, any provenance

	proxied       atomic.Int64 // answered by a replica
	localFallback atomic.Int64 // answered by the embedded nil-model ladder
	failovers     atomic.Int64 // failover launches across all requests
	hedges        atomic.Int64 // hedge launches across all requests
	hedgeWins     atomic.Int64 // requests whose winning attempt was a hedge

	// Distributed dataset generation accounting (datagen.go). The
	// reconciliation invariant, exact at quiescence, is
	// dsDispatched == dsCompleted + dsRedispatched: every shard launch is
	// dispatched, every launch after a shard's first is redispatched, and
	// every shard completes exactly once.
	dsJobs         atomic.Int64 // /v1/dataset jobs started
	dsCompleted    atomic.Int64 // shards completed (verified result accepted)
	dsDispatched   atomic.Int64 // shard launches (first attempts, failovers, hedges, local)
	dsRedispatched atomic.Int64 // shard launches after the shard's first
	dsExpired      atomic.Int64 // leases forfeited by TTL or heartbeat expiry
	dsCorrupt      atomic.Int64 // replica answers rejected by digest verification
	dsLocal        atomic.Int64 // shards labeled by the embedded local server
	dsResumed      atomic.Int64 // shards satisfied from the manifest journal
}

// registerCoordinatorMetrics exports the coordinator-level series as
// scrape-time counter funcs — the coordinator owns the atomics, the registry
// renders them.
func (c *Coordinator) registerCoordinatorMetrics(reg *obs.Registry) {
	export := func(name, help string, v *atomic.Int64) {
		reg.RegisterCounterFunc(name, func() float64 { return float64(v.Load()) })
		reg.SetHelp(name, help)
	}
	export("cluster_requests_accepted_total", "Requests entering the coordinator proxy path.", &c.met.accepted)
	export("cluster_requests_answered_total", "Requests answered with a non-shed status.", &c.met.answered)
	export("cluster_requests_shed_total", "Requests shed with 503 (replica shed or full outage).", &c.met.shed)
	export("cluster_requests_proxied_total", "Requests answered by a replica.", &c.met.proxied)
	export("cluster_local_fallback_total", "Requests answered by the embedded local degradation ladder.", &c.met.localFallback)
	export("cluster_failovers_total", "Failover attempts launched after a retryable outcome.", &c.met.failovers)
	export("cluster_hedges_total", "Hedged attempts launched after the latency budget.", &c.met.hedges)
	export("cluster_hedge_wins_total", "Requests whose winning attempt was the hedge.", &c.met.hedgeWins)
	export("cluster_dataset_jobs_total", "Distributed dataset generation jobs started.", &c.met.dsJobs)
	export("cluster_dataset_shards_completed_total", "Dataset shards completed with a verified result.", &c.met.dsCompleted)
	export("cluster_dataset_shards_dispatched_total", "Dataset shard launches (first attempts, failovers, hedges, local fallbacks).", &c.met.dsDispatched)
	export("cluster_dataset_shards_redispatched_total", "Dataset shard launches after the shard's first.", &c.met.dsRedispatched)
	export("cluster_dataset_leases_expired_total", "Dataset shard leases forfeited by TTL or heartbeat expiry.", &c.met.dsExpired)
	export("cluster_dataset_shards_corrupt_total", "Replica shard answers rejected by digest verification.", &c.met.dsCorrupt)
	export("cluster_dataset_shards_local_total", "Dataset shards labeled by the embedded local server.", &c.met.dsLocal)
	export("cluster_dataset_shards_resumed_total", "Dataset shards satisfied from the manifest journal.", &c.met.dsResumed)
	reg.RegisterGaugeFunc("cluster_replicas_up", func() float64 {
		n := 0
		for _, r := range c.replicas {
			if r.getState() == stateUp {
				n++
			}
		}
		return float64(n)
	})
	reg.SetHelp("cluster_replicas_up", "Replicas currently graded up by the prober.")
	reg.RegisterGaugeFunc("cluster_hedge_budget_ms", func() float64 {
		return float64(c.hedgeDelay().Milliseconds())
	})
	reg.SetHelp("cluster_hedge_budget_ms", "Current hedge launch budget in milliseconds.")
}

// registerReplicaMetrics exports one series family per replica, keyed by the
// sanitized replica URL so Prometheus label-less names stay valid.
func (c *Coordinator) registerReplicaMetrics(reg *obs.Registry) {
	c.registerCoordinatorMetrics(reg)
	for _, r := range c.replicas {
		r := r
		base := "cluster_replica_" + obs.SanitizeMetricName(r.url)
		reg.RegisterGaugeFunc(base+"_state", func() float64 { return float64(r.state.Load()) })
		reg.SetHelp(base+"_state", "Replica health: 0 up, 1 degraded, 2 down.")
		reg.RegisterCounterFunc(base+"_requests_total", func() float64 { return float64(r.requests.Load()) })
		reg.RegisterCounterFunc(base+"_failures_total", func() float64 { return float64(r.failures.Load()) })
		reg.RegisterCounterFunc(base+"_hedges_total", func() float64 { return float64(r.hedges.Load()) })
		reg.RegisterCounterFunc(base+"_probes_total", func() float64 { return float64(r.probes.Load()) })
		reg.RegisterGaugeFunc(base+"_queue_depth", func() float64 { return float64(r.lastQueue.Load()) })
		reg.RegisterGaugeFunc(base+"_breaker", func() float64 { return float64(r.breaker.Load()) })
	}
}
