package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"analogfold/internal/core"
	"analogfold/internal/dataset"
	"analogfold/internal/netlist"
	"analogfold/internal/place"
)

// TestDatasetShardEndpointBitIdentical pins the worker half of distributed
// generation: a shard served over /v1/dataset/shard is digest-sealed,
// verifies, and is byte-equivalent (same digest) to the shard an independent
// process computes from the same spec — the interchangeability the
// coordinator's re-dispatch logic relies on.
func TestDatasetShardEndpointBitIdentical(t *testing.T) {
	s := New(nil, Config{Opts: testOpts()})
	if err := s.Warm([]string{"OTA1-A"}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/dataset/shard",
		`{"bench":"OTA1-A","samples":4,"index":1,"lo":2,"hi":4,"seed":9,"include_uniform":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var sr dataset.ShardResult
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if got, want := sr.Spec(), (dataset.ShardSpec{Index: 1, Lo: 2, Hi: 4}); got != want {
		t.Fatalf("served spec = %+v, want %+v", got, want)
	}
	if err := sr.Verify(); err != nil {
		t.Fatalf("served shard does not verify: %v", err)
	}

	// The independent-process oracle: same spec, fresh flow, no HTTP.
	f, err := core.NewFlow(netlist.OTA1(), place.ProfileA, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	cfg := dataset.Config{Samples: 4, Workers: f.Opts.Workers, Seed: 9,
		RouteCfg: f.Opts.RouteCfg, IncludeUniform: true}
	want, err := dataset.GenerateShard(context.Background(), f.Grid, cfg,
		dataset.ShardSpec{Index: 1, Lo: 2, Hi: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Digest != want.Digest {
		t.Fatalf("served shard digest %s != locally computed %s: shards are not machine-independent",
			sr.Digest, want.Digest)
	}

	m := registryMetrics(t, s)
	shards, entries, dropped := m.num(t, "analogfold_serve_dataset_shards_total"),
		m.num(t, "analogfold_serve_dataset_entries_total"), m.num(t, "analogfold_serve_dataset_dropped_total")
	if shards != 1 || entries != int64(len(sr.Entries)) || dropped != int64(sr.Dropped) {
		t.Errorf("shard metrics = %d shards / %d entries / %d dropped, want 1 shard / %d entries / %d dropped",
			shards, entries, dropped, len(sr.Entries), sr.Dropped)
	}
}

func TestDatasetShardEndpointRejectsBadInput(t *testing.T) {
	s := New(nil, Config{Opts: testOpts()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{"bench":"OTA1-A","samples":0,"lo":0,"hi":0}`,    // empty index space
		`{"bench":"OTA1-A","samples":4,"lo":3,"hi":2}`,    // inverted range
		`{"bench":"OTA1-A","samples":4,"lo":0,"hi":9}`,    // beyond the space
		`{"bench":"OTA1-A","samples":4,"lo":-1,"hi":2}`,   // negative start
		`{"bench":"NOPE-Z","samples":4,"lo":0,"hi":2}`,    // unknown benchmark
		`{"bench":"OTA1-A","samples":4,"lo":0,"hi":2,"s<`, // torn JSON
	} {
		resp, b := postJSON(t, ts.URL+"/v1/dataset/shard", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("request %s: status = %d, want 400: %s", body, resp.StatusCode, b)
		}
	}
}
