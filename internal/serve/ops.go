package serve

import (
	"context"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"analogfold/internal/obs"
)

// Ops is the operational surface the daemon and the cluster coordinator both
// serve: liveness, readiness, the metrics registry, the flight recorder and
// the SLO report. Mount registers it on a mux, so the two tiers answer these
// endpoints with one implementation; Serve runs and drains both tiers'
// listeners.
type Ops struct {
	Registry  *obs.Registry
	Telemetry *obs.Telemetry
	SLO       *obs.SLO
	// SLOPrefix names the series family of /debug/slo?format=prom.
	SLOPrefix string
	// Drained is closed when Serve starts draining; /readyz then answers 503
	// so load balancers stop sending traffic.
	Drained  chan struct{}
	draining sync.Once
	// DrainTimeout bounds Serve's graceful drain.
	DrainTimeout time.Duration
	// Log receives write failures on the scrape paths and the forced close
	// of a drain that overran DrainTimeout.
	Log func(ctx context.Context, msg string, kv ...any)
}

// Serve runs h on ln until ctx is canceled, then drains: Drained closes,
// onDrain (when set) runs, in-flight requests get up to DrainTimeout to
// finish, and stragglers past it are hard-closed so the process can exit
// instead of hanging. It returns the listener's error, or the drain
// deadline's.
func (o *Ops) Serve(ctx context.Context, ln net.Listener, h http.Handler, onDrain func()) error {
	hs := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	o.markDrained()
	if onDrain != nil {
		onDrain()
	}
	dctx, cancel := context.WithTimeout(context.Background(), o.DrainTimeout)
	defer cancel()
	err := hs.Shutdown(dctx)
	if err != nil {
		o.Log(ctx, "drain timeout: force-closing remaining connections")
		hs.Close()
	}
	<-errc // http.ErrServerClosed from the Serve goroutine
	return err
}

// markDrained closes Drained, once.
func (o *Ops) markDrained() { o.draining.Do(func() { close(o.Drained) }) }

// Mount registers /healthz, /readyz, /metrics, /debug/flight and /debug/slo.
func (o *Ops) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/healthz", o.handleHealthz)
	mux.HandleFunc("/readyz", o.handleReadyz)
	mux.HandleFunc("/metrics", o.handleMetrics)
	mux.HandleFunc("/debug/flight", o.handleFlight)
	mux.HandleFunc("/debug/slo", o.handleSLO)
}

const promContentType = "text/plain; version=0.0.4; charset=utf-8"

func (o *Ops) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

func (o *Ops) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	select {
	case <-o.Drained:
		RespondJSON(w, http.StatusServiceUnavailable, ErrorBody{Error: ErrorDetail{
			Kind: "draining", Msg: "server is shutting down"}})
	default:
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ready\n")
	}
}

// handleMetrics serves the registry: the flat series-keyed JSON object by
// default, or Prometheus text exposition with ?format=prom.
func (o *Ops) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", promContentType)
		w.WriteHeader(http.StatusOK)
		if err := o.Registry.WritePrometheus(w); err != nil {
			o.Log(r.Context(), "metrics: prometheus write failed", "err", err)
		}
		return
	}
	RespondJSON(w, http.StatusOK, o.Registry.Snapshot())
}

// handleSLO serves the burn-rate engine: the SLOReport as JSON by default,
// or Prometheus text exposition with ?format=prom. With no objectives
// configured it reports {"enabled":false} rather than an error, so probes can
// always scrape it.
func (o *Ops) handleSLO(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", promContentType)
		w.WriteHeader(http.StatusOK)
		if err := o.SLO.WritePrometheus(w, o.SLOPrefix); err != nil {
			o.Log(r.Context(), "slo: prometheus write failed", "err", err)
		}
		return
	}
	RespondJSON(w, http.StatusOK, o.SLO.Report())
}

// FlightSnapshot is the JSON body of GET /debug/flight: the bounded ring's
// retained events oldest-first plus the drop accounting.
type FlightSnapshot struct {
	Total   uint64            `json:"total"`
	Dropped uint64            `json:"dropped"`
	Events  []obs.FlightEvent `json:"events"`
}

// handleFlight serves the flight recorder: the recent-event ring as JSON by
// default, or as Chrome trace_event JSON (loadable in chrome://tracing and
// Perfetto) with ?format=trace. On the coordinator, whose traced attempts
// import their replicas' span summaries, the trace is one merged timeline
// across every process that touched a request. Without telemetry configured
// it reports an empty recording rather than an error, so dashboards can
// always scrape it.
func (o *Ops) handleFlight(w http.ResponseWriter, r *http.Request) {
	rec := o.Telemetry.Recorder()
	if r.URL.Query().Get("format") == "trace" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		if err := o.Telemetry.WriteTrace(w); err != nil {
			o.Log(r.Context(), "flight: trace write failed", "err", err)
		}
		return
	}
	snap := FlightSnapshot{Total: rec.Total(), Dropped: rec.Dropped(), Events: rec.Snapshot()}
	if snap.Events == nil {
		snap.Events = []obs.FlightEvent{}
	}
	RespondJSON(w, http.StatusOK, snap)
}
