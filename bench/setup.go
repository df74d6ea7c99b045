package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"analogfold/internal/cliutil"
	"analogfold/internal/core"
	"analogfold/internal/gnn3d"
	"analogfold/internal/obs"
	"analogfold/internal/serve"
)

// maxConns bounds the client side of every serving workload: all load comes
// from this one process over at most this many connections (the host's two
// cores), so open-loop bursts beyond it wait in the client and show as
// client.wait_ms_mean.
const maxConns = 2

// scale sizes everything a run does apart from its window. fullScale is the
// benchmark; the tests shrink it.
type scale struct {
	opts         core.Options // options of the checkpoint and the daemon
	flowOpts     core.Options // options of flow_cold's flows
	small, large string       // the two benchmarks: OTA1-A and OTA3-B
	setupReps    int          // bring-ups per run; setup_s is their median
	openRate     float64      // guidance_open arrivals per second
	hitKeys      int          // distinct cached seeds the hit probe asks for
	hitOps       int          // requests of the hit probe
	labelDraws   int          // sampled guidance sets per circuit in the label probe
	relaxReps    int          // relaxations per circuit in the model probe
	probeReps    int          // repetitions of the model probe's fast measurements
}

func fullScale() scale {
	opts, err := quickOptions()
	if err != nil {
		panic(err) // the flag set is fixed; a parse failure is a bug
	}
	// A -quick flow takes about 3 s, too few per window for a steady
	// median; this one keeps every stage at about half the size.
	flowOpts := opts
	flowOpts.Samples, flowOpts.TrainEpochs, flowOpts.RelaxRestarts, flowOpts.NDerive = 8, 4, 2, 2
	// Closed loops of guidance_open's request mix served 2.3–2.5 requests per
	// second; the open loop offers about 25% of that. At 40% (1 req/s) the
	// median latency spread 15–22% over sets of runs, at 0.6 req/s 8%: the
	// more requests overlap, the more a slower spell of the host is
	// amplified by the cores they share.
	return scale{
		opts: opts, flowOpts: flowOpts, small: "OTA1-A", large: "OTA3-B",
		setupReps: 3, openRate: 0.6, hitKeys: 16, hitOps: 5000,
		labelDraws: 8, relaxReps: 3, probeReps: 20,
	}
}

// quickOptions returns the flow options analogfold and analogfoldd select
// with -quick, read from the same flag plumbing the binaries use.
func quickOptions() (core.Options, error) {
	fs := flag.NewFlagSet("analogfoldd", flag.ContinueOnError)
	opts := cliutil.OptionsFlags(fs)
	if err := fs.Parse([]string{"-quick"}); err != nil {
		return core.Options{}, err
	}
	return opts(), nil
}

// daemonConfig is analogfoldd's serve.Config at its flag defaults, with
// telemetry on as the binary always runs it.
func daemonConfig(opts core.Options) serve.Config {
	return serve.Config{
		QueueCapacity: 4, QueueBacklog: 16, AdmissionTimeout: time.Second,
		CacheEntries: 1024, BatchWindow: 2 * time.Millisecond, BatchMax: 8,
		Opts: opts, Telemetry: obs.New(obs.Options{Seed: opts.Seed}),
	}
}

// stack is the serving system under test: a checkpoint trained on the small
// benchmark, an in-process daemon warmed on both benchmarks behind a real
// loopback listener, and the one client that loads it.
type stack struct {
	model  *gnn3d.Model
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	setup  []time.Duration // one per bring-up
}

// newStack brings the system up sc.setupReps times from nothing (train the
// checkpoint, start the daemon, place and warm both benchmarks) and keeps
// the last bring-up. Repeating it lets setup_s report a median.
func newStack(ctx context.Context, sc scale) (*stack, error) {
	st := &stack{}
	for rep := 0; rep < sc.setupReps; rep++ {
		t0 := time.Now()
		c, p, err := core.ParseBenchmark(sc.small)
		if err != nil {
			return nil, err
		}
		f, err := core.NewFlowCtx(ctx, c, p, sc.opts)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		m, _, err := f.LoadOrTrainModel(ctx, "")
		if err != nil {
			return nil, fmt.Errorf("setup: train checkpoint: %w", err)
		}
		srv := serve.New(m, daemonConfig(sc.opts))
		if err := srv.Warm([]string{sc.small, sc.large}); err != nil {
			return nil, fmt.Errorf("setup: warm: %w", err)
		}
		st.setup = append(st.setup, time.Since(t0))
		st.model, st.srv = m, srv
	}
	st.ts = httptest.NewServer(st.srv.Handler())
	st.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns,
	}}
	return st, nil
}

// close stops the listener after every request has finished.
func (st *stack) close() {
	st.client.CloseIdleConnections()
	st.ts.Close()
}
