// Package serve implements analogfoldd, the guidance-serving daemon: a warm
// AnalogFold model behind an HTTP API with a bounded admission queue, a
// circuit breaker around model evaluation, panic containment, graceful drain
// and an observable /metrics surface. The design premise is that the
// degradation ladder already built into core.RunAnalogFold (elite → uniform →
// MagicalRoute) is the daemon's brownout mechanism: overload and breaker
// trips shift responses down the ladder instead of turning them into errors.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"analogfold/internal/core"
	"analogfold/internal/fault"
	"analogfold/internal/gnn3d"
	"analogfold/internal/guidance"
	"analogfold/internal/hetgraph"
	"analogfold/internal/obs"
	"analogfold/internal/relax"
)

// GuidanceRequest asks for relaxation-derived guidance sets for a benchmark.
// Zero-valued knobs inherit the daemon's configured defaults.
type GuidanceRequest struct {
	Bench    string `json:"bench"` // Table-2 id, e.g. "OTA3-B" (bare name → profile A)
	Seed     int64  `json:"seed,omitempty"`
	Restarts int    `json:"restarts,omitempty"`
	NDerive  int    `json:"nderive,omitempty"`
}

// GuidanceResponse carries the derived guidance sets, best first. Rung is
// "elite" for model-derived guidance and "uniform" when the daemon degraded
// (breaker open or relaxation fault).
type GuidanceResponse struct {
	Bench      string         `json:"bench"`
	Seed       int64          `json:"seed"`
	Rung       string         `json:"rung"`
	Degraded   bool           `json:"degraded"`
	Breaker    string         `json:"breaker,omitempty"` // "open" when served without the model
	CMax       float64        `json:"cmax"`
	Guides     [][][3]float64 `json:"guides"` // [set][net][x y z]
	Potentials []float64      `json:"potentials,omitempty"`
	// Predictions are the model's denormalized metric predictions for each
	// guidance set (offset, CMRR, bandwidth, gain, noise), in Guides order.
	Predictions [][gnn3d.NumMetrics]float64 `json:"predictions,omitempty"`
	Events      []string                    `json:"degradation_events,omitempty"`
}

// RouteRequest asks for a full guided-routing run on a benchmark.
type RouteRequest struct {
	Bench    string `json:"bench"`
	Seed     int64  `json:"seed,omitempty"`
	Restarts int    `json:"restarts,omitempty"`
	NDerive  int    `json:"nderive,omitempty"`
}

// RouteResponse is the routed result with its degradation account.
type RouteResponse struct {
	Bench        string   `json:"bench"`
	Seed         int64    `json:"seed"`
	Rung         string   `json:"rung"`
	Degraded     bool     `json:"degraded"`
	Breaker      string   `json:"breaker,omitempty"`
	WirelengthNm int      `json:"wirelength_nm"`
	Vias         int      `json:"vias"`
	OffsetUV     float64  `json:"offset_uv"`
	CMRRdB       float64  `json:"cmrr_db"`
	BandwidthMHz float64  `json:"bandwidth_mhz"`
	GainDB       float64  `json:"gain_db"`
	NoiseUVrms   float64  `json:"noise_uvrms"`
	RuntimeMS    float64  `json:"runtime_ms"`
	Events       []string `json:"degradation_events,omitempty"`
}

// ErrorBody is the JSON shape of every non-2xx response.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail mirrors the fault taxonomy onto the wire: Kind is the sentinel
// kind's message ("overloaded", "deadline exceeded", ...), Stage the pipeline
// stage the fault is attributed to.
type ErrorDetail struct {
	Kind  string `json:"kind"`
	Stage string `json:"stage,omitempty"`
	Msg   string `json:"msg"`
}

// requestOptions applies a request's knob overrides to the daemon's base
// options and returns a request-scoped flow.
func requestOptions(f *core.Flow, seed int64, restarts, nderive int) *core.Flow {
	o := f.Opts
	if seed != 0 {
		o.Seed = seed
	}
	if restarts > 0 {
		o.RelaxRestarts = restarts
	}
	if nderive > 0 {
		o.NDerive = nderive
	}
	return f.WithOptions(o)
}

// BuildGuidanceResponse derives guidance through the warm relaxation path and
// assembles the wire format. useModel=false (breaker open) short-circuits to
// uniform guidance. Both the daemon handler and the `analogfold guidance` CLI
// subcommand call this one function — which is what makes a served response
// bit-identical to the CLI artifact for the same checkpoint and knobs.
func BuildGuidanceResponse(ctx context.Context, f *core.Flow, model *gnn3d.Model, hg *hetgraph.Graph, req GuidanceRequest, useModel bool) (*GuidanceResponse, error) {
	rf := requestOptions(f, req.Seed, req.Restarts, req.NDerive)
	resp := &GuidanceResponse{
		Bench: f.Name(),
		Seed:  rf.Opts.Seed,
		Rung:  string(core.RungElite),
	}
	if !useModel || model == nil {
		return uniformGuidanceResponse(rf, resp, ""), nil
	}
	rres, err := rf.DeriveGuidanceWarm(ctx, model, hg)
	return finishGuidanceResponse(rf, resp, rres, err)
}

// finishGuidanceResponse turns a relaxation outcome into the wire shape. It
// is the shared back half of the request-scoped path above and the daemon's
// wave-batched path: both feed it the same (result, error) contract, which is
// what keeps a batched response bit-identical to an unbatched one.
func finishGuidanceResponse(rf *core.Flow, resp *GuidanceResponse, rres *relax.Result, err error) (*GuidanceResponse, error) {
	if err != nil {
		if fault.IsTimeout(err) {
			return nil, err
		}
		// Relaxation fault: degrade to uniform guidance, carry the event.
		return uniformGuidanceResponse(rf, resp, err.Error()), err
	}
	resp.Guides = make([][][3]float64, len(rres.Guides))
	for i, g := range rres.Guides {
		resp.CMax = g.CMax
		set := make([][3]float64, len(g.PerNet))
		for j, v := range g.PerNet {
			set[j] = [3]float64(v)
		}
		resp.Guides[i] = set
	}
	resp.Potentials = append(resp.Potentials, rres.Potentials...)
	resp.Predictions = append(resp.Predictions, rres.Predictions...)
	return resp, nil
}

// uniformGuidanceResponse fills the response with the uniform-rung shape: one
// neutral guidance set for every net, plus the event that forced the fallback.
func uniformGuidanceResponse(f *core.Flow, resp *GuidanceResponse, event string) *GuidanceResponse {
	u := guidance.Uniform(len(f.Circuit.Nets))
	set := make([][3]float64, len(u.PerNet))
	for j, v := range u.PerNet {
		set[j] = [3]float64(v)
	}
	resp.Rung = string(core.RungUniform)
	resp.Degraded = true
	resp.CMax = u.CMax
	resp.Guides = [][][3]float64{set}
	resp.Potentials = nil
	if event != "" {
		resp.Events = append(resp.Events, event)
	}
	return resp
}

// BuildRouteResponse runs the warm flow end to end and assembles the wire
// format. With useModel=false the flow starts at the ladder bottom (the
// breaker-open shape).
func BuildRouteResponse(ctx context.Context, f *core.Flow, model *gnn3d.Model, hg *hetgraph.Graph, req RouteRequest, useModel bool) (*RouteResponse, *core.Outcome, error) {
	rf := requestOptions(f, req.Seed, req.Restarts, req.NDerive)
	if !useModel {
		model, hg = nil, nil
	}
	out, err := rf.RunAnalogFoldWarm(ctx, model, hg)
	if err != nil {
		return nil, nil, err
	}
	resp := &RouteResponse{
		Bench:        f.Name(),
		Seed:         rf.Opts.Seed,
		Rung:         string(out.Degradation.FinalRung),
		Degraded:     out.Degradation.Degraded() || !useModel,
		WirelengthNm: out.WirelengthNm,
		Vias:         out.Vias,
		OffsetUV:     out.Metrics.OffsetUV,
		CMRRdB:       out.Metrics.CMRRdB,
		BandwidthMHz: out.Metrics.BandwidthMHz,
		GainDB:       out.Metrics.GainDB,
		NoiseUVrms:   out.Metrics.NoiseUVrms,
		RuntimeMS:    float64(out.Runtime().Microseconds()) / 1e3,
	}
	for _, e := range out.Degradation.Events {
		resp.Events = append(resp.Events, e.String())
	}
	return resp, out, nil
}

// MarshalBody renders a response body exactly as the daemon writes it:
// two-space-indented JSON plus a trailing newline. The CLI artifact writer
// uses it too, so the file on disk and the HTTP body are the same bytes.
func MarshalBody(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// httpStatus maps a typed fault to its HTTP status.
func httpStatus(err error) int {
	switch {
	case errors.Is(err, fault.ErrOverload):
		return http.StatusServiceUnavailable
	case errors.Is(err, fault.ErrInvalidInput):
		return http.StatusBadRequest
	case errors.Is(err, fault.ErrTimeout), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, fault.ErrCanceled), errors.Is(err, context.Canceled):
		// Client went away; 499 is the de-facto convention (nginx).
		return 499
	default:
		return http.StatusInternalServerError
	}
}

// errorDetail projects a fault chain onto the wire shape.
func errorDetail(err error) ErrorDetail {
	d := ErrorDetail{Msg: err.Error()}
	if k := fault.KindOf(err); k != nil {
		d.Kind = k.Error()
	}
	if st, ok := fault.StageOf(err); ok {
		d.Stage = string(st)
	}
	if d.Kind == "" {
		d.Kind = "internal"
	}
	return d
}

// RespondJSON writes a response body with the canonical marshaling. Both
// tiers answer through it, so a coordinator-originated body is
// indistinguishable in shape from a daemon's.
func RespondJSON(w http.ResponseWriter, status int, v any) {
	body, err := MarshalBody(v)
	if err != nil {
		http.Error(w, `{"error":{"kind":"internal","msg":"marshal failure"}}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// writeBody writes pre-marshaled response bytes — the cache replay path: a
// hit serves the exact bytes MarshalBody produced when the body was computed.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// RespondError writes the typed-fault error shape, attaching Retry-After to
// overload sheds.
func RespondError(w http.ResponseWriter, err error, retryAfterSeconds int) {
	status := httpStatus(err)
	if status == http.StatusServiceUnavailable && retryAfterSeconds > 0 {
		w.Header().Set("Retry-After", obs.Itoa(int64(retryAfterSeconds)))
	}
	RespondJSON(w, status, ErrorBody{Error: errorDetail(err)})
}
