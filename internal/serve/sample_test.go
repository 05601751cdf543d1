package serve

import (
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"

	"timekeeping/internal/sim"
	"timekeeping/pkg/api"
)

// sampledRun is fastRun's configuration in sampling mode, scaled so the
// schedule fits several windows.
var sampledRun = api.RunRequest{
	Bench:  "eon",
	Warmup: 5000,
	Refs:   60_000,
	Sampling: &api.SamplingPolicy{
		DetailedRefs:     1024,
		WarmRefs:         8192,
		DetailedWarmRefs: 256,
	},
}

func TestSampledRunEndpoint(t *testing.T) {
	_, ts, cl := newTestServer(t, Config{})

	j, err := cl.Run(context.Background(), sampledRun)
	if err != nil {
		t.Fatalf("sampled run: %v", err)
	}
	if j.Status != api.StatusDone || j.Result == nil {
		t.Fatalf("sampled run: %+v", j)
	}
	e := j.Result.Estimate
	if e == nil {
		t.Fatal("sampled result has no estimate view")
	}
	if e.Windows < 2 || e.DetailedRefs == 0 || e.WarmRefs == 0 {
		t.Fatalf("estimate view = %+v", e)
	}
	if e.IPC.Mean <= 0 || e.IPC.CILow > e.IPC.Mean || e.IPC.CIHigh < e.IPC.Mean {
		t.Fatalf("IPC estimate = %+v", e.IPC)
	}
	if e.IPC.N != e.Windows {
		t.Fatalf("IPC samples %d != windows %d", e.IPC.N, e.Windows)
	}

	// The sampling counters are process-cumulative (obs.Default), so only
	// assert presence, not exact values.
	m := scrape(t, ts)
	for _, name := range []string{
		"sim_sample_windows_total",
		"sim_sample_warm_refs_total",
		"sim_sample_detailed_refs_total",
		"sim_sample_segments_total",
		"sim_sample_parallel_windows_total",
	} {
		if _, ok := m[name]; !ok {
			t.Errorf("metric %q missing from /metrics", name)
		}
	}

	// An exact run of the same configuration must not be answered from
	// the sampled entry (distinct cache keys).
	exact := sampledRun
	exact.Sampling = nil
	j2, err := cl.Run(context.Background(), exact)
	if err != nil {
		t.Fatalf("exact run: %v", err)
	}
	if j2.Cache != api.CacheMiss {
		t.Fatalf("exact run after sampled run: cache = %q, want miss", j2.Cache)
	}
	if j2.Result.Estimate != nil {
		t.Fatal("exact run carries an estimate")
	}
}

func TestSampledRunBadPolicy(t *testing.T) {
	_, _, cl := newTestServer(t, Config{})
	bad := sampledRun
	bad.Sampling = &api.SamplingPolicy{DetailedRefs: 0, WarmRefs: 8192}
	_, err := cl.Run(context.Background(), bad)
	if ae := apiError(t, err); ae.Code != api.CodeBadRequest || ae.HTTPStatus != http.StatusBadRequest {
		t.Fatalf("invalid policy error = %+v", ae)
	}
}

// TestSampledRunSegmentParallel: the wire policy's segment-parallel knobs
// reach the simulator, and parallel requests reuse the sequential entry's
// cache slot (Parallelism is outside result identity).
func TestSampledRunSegmentParallel(t *testing.T) {
	_, _, cl := newTestServer(t, Config{})
	req := sampledRun
	pol := *sampledRun.Sampling
	pol.SegmentWindows = 2
	pol.Parallelism = 4
	req.Sampling = &pol

	j, err := cl.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("segment-parallel run: %v", err)
	}
	if j.Status != api.StatusDone || j.Result == nil || j.Result.Estimate == nil {
		t.Fatalf("segment-parallel run: %+v", j)
	}
	if j.Result.Estimate.Windows < 2 {
		t.Fatalf("estimate = %+v", j.Result.Estimate)
	}

	seq := req
	spol := pol
	spol.Parallelism = 0
	seq.Sampling = &spol
	j2, err := cl.Run(context.Background(), seq)
	if err != nil {
		t.Fatalf("sequential segmented run: %v", err)
	}
	if j2.Cache != api.CacheHit {
		t.Fatalf("sequential run after parallel run: cache = %q, want hit (shared key)", j2.Cache)
	}
}

// TestSampledRunParallelismOutOfRange: an out-of-range Parallelism is a
// bad_request that names the accepted range.
func TestSampledRunParallelismOutOfRange(t *testing.T) {
	_, _, cl := newTestServer(t, Config{})
	for _, par := range []int{-1, 65} {
		bad := sampledRun
		pol := *sampledRun.Sampling
		pol.SegmentWindows = 2
		pol.Parallelism = par
		bad.Sampling = &pol
		_, err := cl.Run(context.Background(), bad)
		ae := apiError(t, err)
		if ae.Code != api.CodeBadRequest || ae.HTTPStatus != http.StatusBadRequest {
			t.Fatalf("parallelism %d error = %+v", par, ae)
		}
		if len(ae.Accepted) != 1 || ae.Accepted[0] != "0..64" {
			t.Fatalf("parallelism %d accepted = %v, want [0..64]", par, ae.Accepted)
		}
	}
}

// TestSampledRunWindowCap: a window count above sample.MaxWindowCount,
// explicit or derived from the request's references, is a bad_request at
// intake for runs and experiments alike, and the server keeps answering.
// Admitted, either request would have the segmented schedule allocate a
// slot per segment, 2^40 of them.
func TestSampledRunWindowCap(t *testing.T) {
	_, _, cl := newTestServer(t, Config{})
	explicit := api.RunRequest{Bench: "eon", Sampling: &api.SamplingPolicy{
		DetailedRefs: 1, WarmRefs: 1, SegmentWindows: 1, MaxWindows: 1 << 40,
	}}
	derived := api.RunRequest{Bench: "eon", Refs: 1 << 41, Sampling: &api.SamplingPolicy{
		DetailedRefs: 1, WarmRefs: 1, SegmentWindows: 1,
	}}
	for i, req := range []api.RunRequest{explicit, derived} {
		_, err := cl.Run(context.Background(), req)
		checkWindowCapError(t, fmt.Sprintf("run %d", i), err)
		_, err = cl.Experiment(context.Background(), "fig2", api.ExperimentRequest{
			Benches: []string{"eon"}, Refs: req.Refs, Sampling: req.Sampling,
		})
		checkWindowCapError(t, fmt.Sprintf("experiment %d", i), err)
	}
	if j, err := cl.Run(context.Background(), sampledRun); err != nil || j.Status != api.StatusDone {
		t.Fatalf("run after rejected requests: %+v, %v", j, err)
	}
}

// checkWindowCapError asserts err is a bad_request naming the window
// range.
func checkWindowCapError(t *testing.T, what string, err error) {
	t.Helper()
	ae := apiError(t, err)
	if ae.Code != api.CodeBadRequest || ae.HTTPStatus != http.StatusBadRequest {
		t.Fatalf("%s: error = %+v", what, ae)
	}
	for _, a := range ae.Accepted {
		if a == "1..65536" {
			return
		}
	}
	t.Fatalf("%s: accepted = %v, want to include 1..65536", what, ae.Accepted)
}

// TestSampledRunParallelWithoutSegments: Parallelism > 1 without
// SegmentWindows is rejected by policy validation.
func TestSampledRunParallelWithoutSegments(t *testing.T) {
	_, _, cl := newTestServer(t, Config{})
	bad := sampledRun
	pol := *sampledRun.Sampling
	pol.Parallelism = 4
	bad.Sampling = &pol
	_, err := cl.Run(context.Background(), bad)
	if ae := apiError(t, err); ae.Code != api.CodeBadRequest {
		t.Fatalf("parallel-without-segments error = %+v", ae)
	}
}

func TestSampledRunAuditBaseRejected(t *testing.T) {
	base := sim.Default()
	base.Audit = true
	_, _, cl := newTestServer(t, Config{Base: base})
	_, err := cl.Run(context.Background(), sampledRun)
	if ae := apiError(t, err); ae.Code != api.CodeBadRequest {
		t.Fatalf("sampling+audit error = %+v", ae)
	}
}

func TestSampledExperimentEndpoint(t *testing.T) {
	_, _, cl := newTestServer(t, Config{})
	req := api.ExperimentRequest{
		Benches:  []string{"twolf", "ammp"},
		Warmup:   5000,
		Refs:     60_000,
		Sampling: sampledRun.Sampling,
	}
	j, err := cl.Experiment(context.Background(), "fig2", req)
	if err != nil {
		t.Fatalf("sampled experiment: %v", err)
	}
	if j.Status != api.StatusDone || len(j.Tables) == 0 || len(j.Tables[0].Rows) != 2 {
		t.Fatalf("sampled experiment: %+v", j)
	}

	bad := req
	bad.Sampling = &api.SamplingPolicy{DetailedRefs: 1024} // WarmRefs missing
	_, err = cl.Experiment(context.Background(), "fig2", bad)
	if ae := apiError(t, err); ae.Code != api.CodeBadRequest {
		t.Fatalf("invalid experiment policy error = %+v", ae)
	}
}

// TestProgressCacheHitTerminal: a job answered from the result cache never
// drives its own progress handle — the terminal SSE event must still
// report the run complete (refs done == expected, phase done), not an
// idle zero-progress stream.
func TestProgressCacheHitTerminal(t *testing.T) {
	_, _, cl := newTestServer(t, Config{})
	cl.ProgressInterval = 10 * time.Millisecond

	first, err := cl.Run(context.Background(), fastRun)
	if err != nil {
		t.Fatalf("priming run: %v", err)
	}
	total := first.Result.TotalRefs

	j, err := cl.RunAsync(context.Background(), fastRun)
	if err != nil {
		t.Fatalf("hit submit: %v", err)
	}
	events := watch(t, cl, j.ID)
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	last := events[len(events)-1]
	if !last.Terminal || last.Status != api.StatusDone {
		t.Fatalf("terminal event = %+v", last)
	}
	if last.Phase != "done" {
		t.Fatalf("terminal phase = %q, want done", last.Phase)
	}
	if last.RefsDone != total || last.RefsExpected != total {
		t.Fatalf("terminal refs = %d/%d, want %d/%d", last.RefsDone, last.RefsExpected, total, total)
	}
	if snap, _ := cl.Job(context.Background(), j.ID); snap.Cache != api.CacheHit {
		t.Fatalf("second run cache = %q, want hit", snap.Cache)
	}
}

// TestProgressJoinedTerminal: a job that attaches to another caller's
// in-flight simulation likewise observes completion through its own
// progress stream.
func TestProgressJoinedTerminal(t *testing.T) {
	_, _, cl := newTestServer(t, Config{Workers: 2})
	cl.ProgressInterval = 10 * time.Millisecond

	// A run long enough that the second submission attaches while the
	// first is still simulating.
	req := api.RunRequest{Bench: "mcf", Warmup: 100_000, Refs: 4_000_000}
	j1, err := cl.RunAsync(context.Background(), req)
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	// Wait for the first job's simulation to report progress, not merely
	// for a worker to pick it up: the simulation runs inside the result
	// cache's flight, so once it reports references the flight's key is
	// registered, and the second submission can only join (or, if the
	// first has finished, hit).
	deadline := time.Now().Add(20 * time.Second)
	for {
		snap, err := cl.Job(context.Background(), j1.ID)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Progress != nil && snap.Progress.RefsDone > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first job never reported progress: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
	j2, err := cl.RunAsync(context.Background(), req)
	if err != nil {
		t.Fatalf("second submit: %v", err)
	}

	events := watch(t, cl, j2.ID)
	last := events[len(events)-1]
	if !last.Terminal || last.Status != api.StatusDone {
		t.Fatalf("terminal event = %+v", last)
	}
	if last.Phase != "done" || last.RefsDone == 0 || last.RefsDone != last.RefsExpected {
		t.Fatalf("joined job terminal progress = %+v", last)
	}
	snap, _ := cl.Job(context.Background(), j2.ID)
	if snap.Cache != api.CacheJoined && snap.Cache != api.CacheHit {
		t.Fatalf("second job cache = %q, want joined (or hit on a slow scheduler)", snap.Cache)
	}
	// Drain the first job too so shutdown is clean.
	if _, err := cl.Job(context.Background(), j1.ID); err != nil {
		t.Fatal(err)
	}
}
