package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"analogfold/internal/dataset"
	"analogfold/internal/gnn3d"
	"analogfold/internal/hetgraph"
)

// CacheKey identifies the learning artifacts of one (circuit, profile, seed,
// samples) configuration.
func (f *Flow) CacheKey() string {
	return fmt.Sprintf("%s_%s_s%d_n%d", f.Circuit.Name, f.Profile, f.Opts.Seed, f.Opts.Samples)
}

// datasetPath and modelPath locate artifacts inside a cache directory.
func (f *Flow) datasetPath(dir string) string {
	return filepath.Join(dir, f.CacheKey()+"_dataset.json")
}

func (f *Flow) modelPath(dir string) string {
	return filepath.Join(dir, f.CacheKey()+"_model.json")
}

// LoadOrGenerateDataset returns the cached dataset when present and
// consistent, otherwise generates and stores it. An empty dir disables
// caching.
func (f *Flow) LoadOrGenerateDataset(ctx context.Context, dir string) (*dataset.Dataset, error) {
	return f.LoadOrGenerateDatasetExec(ctx, dir, nil)
}

// shardDir is the crash-safe shard journal directory for a cached dataset:
// sibling to the final artifact, removed once the artifact is saved.
func (f *Flow) shardDir(dir string) string {
	return filepath.Join(dir, f.CacheKey()+"_shards")
}

// LoadOrGenerateDatasetExec is LoadOrGenerateDataset with a pluggable shard
// executor: nil labels shards in-process on this flow's grid; the cluster
// coordinator passes its lease dispatcher to farm shards across replicas.
// With a cache dir the run is resumable — every completed shard is journaled
// under <key>_shards/ and a restarted run regenerates only what's missing or
// corrupt; the shard journal is cleaned up once the final artifact is saved.
// Whichever path runs, the dataset is bit-identical to a single-process,
// uninterrupted dataset.Generate (the dataset package's structural invariant).
func (f *Flow) LoadOrGenerateDatasetExec(ctx context.Context, dir string, exec dataset.ShardExec) (*dataset.Dataset, error) {
	if dir != "" {
		if ds, err := dataset.Load(f.datasetPath(dir)); err == nil {
			if ds.Circuit == f.Circuit.Name && ds.NumNets == len(f.Circuit.Nets) {
				return ds, nil
			}
		}
	}
	cfg := f.Opts.datasetConfig()
	if exec == nil {
		exec = dataset.LocalExec(f.Grid, cfg)
	}
	sdir := ""
	if dir != "" {
		sdir = f.shardDir(dir)
	}
	ds, _, err := dataset.GenerateResumable(ctx, f.Circuit.Name, len(f.Circuit.Nets), cfg, sdir, exec)
	if err != nil {
		return nil, err
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("core: cache: %w", err)
		}
		if err := ds.Save(f.datasetPath(dir)); err != nil {
			return nil, fmt.Errorf("core: cache: %w", err)
		}
		// The final artifact is durable; the shard journal has served its
		// purpose. Removal failure is cosmetic (a stale journal is header-
		// checked on any future run), so it is deliberately best-effort.
		_ = os.RemoveAll(sdir)
	}
	return ds, nil
}

// LoadOrTrainModel returns the cached trained model when present and
// consistent with this flow — the checkpoint's provenance stamp (circuit name
// + normalized GNN config) must match, mirroring the dataset path's
// Circuit/NumNets check — otherwise trains on the (possibly cached) dataset
// and stores a freshly stamped result. Training goes through fitModel, so
// the checkpoint holds the weights the cold flow trains. The heterogeneous
// graph is returned alongside, since every caller needs it.
func (f *Flow) LoadOrTrainModel(ctx context.Context, dir string) (*gnn3d.Model, *hetgraph.Graph, error) {
	hg, err := f.BuildHetGraph()
	if err != nil {
		return nil, nil, err
	}
	if dir != "" {
		if m, err := gnn3d.Load(f.modelPath(dir)); err == nil {
			if err := m.ValidateStamp(f.Circuit.Name, f.Opts.gnnConfig()); err == nil {
				return m, hg, nil
			}
			// Stale or foreign checkpoint (wrong circuit, different GNN
			// config, or a pre-stamp file): retrain instead of silently
			// serving it; the fresh save below overwrites it.
		}
	}
	ds, err := f.LoadOrGenerateDataset(ctx, dir)
	if err != nil {
		return nil, nil, err
	}
	m, _, err := f.fitModel(ctx, hg, ds.Samples(), f.Opts.gnnConfig())
	if err != nil {
		return nil, nil, err
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("core: cache: %w", err)
		}
		if err := m.Save(f.modelPath(dir)); err != nil {
			return nil, nil, fmt.Errorf("core: cache: %w", err)
		}
	}
	return m, hg, nil
}
