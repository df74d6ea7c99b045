package serve

import (
	"context"
	"net/http"

	"analogfold/internal/dataset"
	"analogfold/internal/fault"
	"analogfold/internal/obs"
)

// ShardRequest asks the daemon to label one contiguous shard [Lo, Hi) of a
// benchmark's deterministic sample index space. Samples/Seed/CMax/
// IncludeUniform pin the full index space the shard is cut from: every
// replica given the same request produces bit-identical bytes, which is what
// lets the coordinator re-dispatch an expired lease to a different replica
// without any reconciliation beyond a digest check.
type ShardRequest struct {
	Bench          string  `json:"bench"` // Table-2 id, e.g. "OTA3-B" (bare name → profile A)
	Samples        int     `json:"samples"`
	Index          int     `json:"index"`
	Lo             int     `json:"lo"`
	Hi             int     `json:"hi"`
	Seed           int64   `json:"seed"`
	CMax           float64 `json:"c_max,omitempty"`
	IncludeUniform bool    `json:"include_uniform"`
}

// GenerateShardLocal labels one shard on this daemon's warm grid. It is the
// body of POST /v1/dataset/shard and the coordinator's local fallback rung
// when every replica is down. The result is digest-sealed by GenerateShard;
// routing config and label math come from the daemon's base options, so two
// daemons with the same options are interchangeable shard producers.
func (s *Server) GenerateShardLocal(ctx context.Context, req ShardRequest) (*dataset.ShardResult, error) {
	if req.Samples <= 0 || req.Lo < 0 || req.Hi <= req.Lo || req.Hi > req.Samples {
		return nil, fault.New(fault.StageServe, fault.ErrInvalidInput,
			"shard range [%d,%d) outside [0,%d)", req.Lo, req.Hi, req.Samples)
	}
	f, _, err := s.flowFor(req.Bench)
	if err != nil {
		return nil, err
	}
	cfg := dataset.Config{
		Samples: req.Samples, Workers: f.Opts.Workers, Seed: req.Seed,
		CMax: req.CMax, RouteCfg: f.Opts.RouteCfg, IncludeUniform: req.IncludeUniform,
	}
	return dataset.GenerateShard(ctx, f.Grid, cfg, dataset.ShardSpec{
		Index: req.Index, Lo: req.Lo, Hi: req.Hi,
	})
}

// handleDatasetShard serves POST /v1/dataset/shard. Shard labeling shares the
// admission queue with the guidance endpoints (a shard is real routing work)
// but never touches the model path, so it neither consults nor feeds the
// circuit breaker.
func (s *Server) handleDatasetShard(w http.ResponseWriter, r *http.Request) {
	var req ShardRequest
	s.serveAdmitted(w, r, &req, s.met.shard, func(ctx context.Context, w http.ResponseWriter) {
		ctx, span := obs.StartSpan(ctx, "serve.dataset.shard")
		defer span.Arg("bench", req.Bench).End()
		sr, err := s.GenerateShardLocal(ctx, req)
		if err != nil {
			RespondError(w, err, 0)
			return
		}
		s.met.shardRequests.Add(1)
		s.met.shardEntries.Add(int64(len(sr.Entries)))
		s.met.shardDropped.Add(int64(sr.Dropped))
		s.logCtx(ctx, "dataset shard labeled",
			"bench", req.Bench, "index", req.Index, "lo", req.Lo, "hi", req.Hi,
			"entries", len(sr.Entries), "dropped", sr.Dropped)
		RespondJSON(w, http.StatusOK, sr)
	})
}
