package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"timekeeping/internal/sim"
	"timekeeping/internal/simcache"
	"timekeeping/pkg/api"
)

// fastRun is a request that simulates in milliseconds.
var fastRun = api.RunRequest{Bench: "eon", Warmup: 2000, Refs: 8000}

// foreverRun would simulate for hours; only cancellation ends it.
var foreverRun = api.RunRequest{Bench: "mcf", Warmup: 1000, Refs: 4_000_000_000}

// newTestServer starts a service with an isolated cache so metric
// assertions see only this test's traffic, and returns the typed client
// every test talks through.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *api.Client) {
	t.Helper()
	if cfg.Cache == nil {
		cfg.Cache = simcache.New()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts, api.NewClient(ts.URL, ts.Client())
}

// apiError unwraps err into the structured wire error, failing the test
// when the client returned anything else.
func apiError(t *testing.T, err error) *api.Error {
	t.Helper()
	var ae *api.Error
	if !errors.As(err, &ae) {
		t.Fatalf("error is %T (%v), want *api.Error", err, err)
	}
	return ae
}

// scrape parses /metrics into name -> value.
func scrape(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var name string
		var v float64
		if _, err := fmt.Sscanf(sc.Text(), "%s %g", &name, &v); err == nil {
			m[name] = v
		}
	}
	return m
}

// waitMetric polls /metrics until name reaches want or the deadline hits.
func waitMetric(t *testing.T, ts *httptest.Server, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if scrape(t, ts)[name] == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("metric %s never reached %g (metrics: %v)", name, want, scrape(t, ts))
}

func TestHealthz(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

func TestColdRunThenCacheHit(t *testing.T) {
	_, ts, cl := newTestServer(t, Config{})

	j, err := cl.Run(context.Background(), fastRun)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if j.Status != api.StatusDone || j.Cache != api.CacheMiss {
		t.Fatalf("cold run: %+v", j)
	}
	if j.Result == nil || j.Result.IPC <= 0 {
		t.Fatalf("cold run has no result: %+v", j.Result)
	}
	if j.Result.L1.Accesses == 0 || j.Result.L1.Misses == 0 {
		t.Fatalf("cold run missing L1 stats: %+v", j.Result.L1)
	}
	m := scrape(t, ts)
	if m["tkserve_cache_misses_total"] != 1 || m["tkserve_sim_runs_total"] != 1 {
		t.Fatalf("after cold run: %v", m)
	}

	j2, err := cl.Run(context.Background(), fastRun)
	if err != nil {
		t.Fatalf("re-run: %v", err)
	}
	if j2.Cache != api.CacheHit {
		t.Fatalf("re-run cache = %q, want hit", j2.Cache)
	}
	if j2.Result.IPC != j.Result.IPC {
		t.Fatalf("cached IPC %v != original %v", j2.Result.IPC, j.Result.IPC)
	}
	m = scrape(t, ts)
	// The hit counter moved; the miss/run counters did not — the second
	// request did not simulate.
	if m["tkserve_cache_hits_total"] != 1 || m["tkserve_cache_misses_total"] != 1 || m["tkserve_sim_runs_total"] != 1 {
		t.Fatalf("after re-run: %v", m)
	}
	if m["tkserve_jobs_done_total"] != 2 {
		t.Fatalf("jobs done = %v, want 2", m["tkserve_jobs_done_total"])
	}
}

func TestConcurrentIdenticalRequestsCollapse(t *testing.T) {
	_, ts, cl := newTestServer(t, Config{Workers: 8})

	const n = 6
	req := api.RunRequest{Bench: "twolf", Warmup: 2000, Refs: 8000}
	var wg sync.WaitGroup
	ipcs := make([]float64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := cl.Run(context.Background(), req)
			if err != nil || j.Result == nil {
				t.Errorf("request %d: err=%v job=%+v", i, err, j)
				return
			}
			ipcs[i] = j.Result.IPC
		}(i)
	}
	wg.Wait()

	for i := 1; i < n; i++ {
		if ipcs[i] != ipcs[0] {
			t.Fatalf("request %d got IPC %v, request 0 got %v", i, ipcs[i], ipcs[0])
		}
	}
	m := scrape(t, ts)
	if m["tkserve_cache_misses_total"] != 1 || m["tkserve_sim_runs_total"] != 1 {
		t.Fatalf("identical requests did not collapse to one simulation: %v", m)
	}
	if m["tkserve_cache_hits_total"]+m["tkserve_cache_joined_total"] != n-1 {
		t.Fatalf("hits+joined = %v, want %d: %v",
			m["tkserve_cache_hits_total"]+m["tkserve_cache_joined_total"], n-1, m)
	}
}

func TestClientDisconnectCancelsRun(t *testing.T) {
	_, ts, cl := newTestServer(t, Config{})

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := cl.Run(ctx, foreverRun)
		errCh <- err
	}()

	// Wait until the simulation is actually in flight, then disconnect.
	waitMetric(t, ts, "tkserve_jobs_running", 1)
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("disconnected request returned without error")
	}

	waitMetric(t, ts, "tkserve_jobs_canceled_total", 1)
	waitMetric(t, ts, "tkserve_jobs_running", 0)
	waitMetric(t, ts, "tkserve_cache_inflight", 0) // the simulation itself stopped
	m := scrape(t, ts)
	// The in-flight simulation was stopped, not completed and cached.
	if m["tkserve_sim_runs_total"] != 0 || m["tkserve_cache_entries"] != 0 {
		t.Fatalf("cancelled run left state behind: %v", m)
	}
}

func TestAsyncJobLifecycleAndCancel(t *testing.T) {
	_, ts, cl := newTestServer(t, Config{})

	j, err := cl.RunAsync(context.Background(), foreverRun)
	if err != nil || j.ID == "" {
		t.Fatalf("async submit: err=%v job=%+v", err, j)
	}
	waitMetric(t, ts, "tkserve_jobs_running", 1)
	snap, err := cl.Job(context.Background(), j.ID)
	if err != nil || snap.Status != api.StatusRunning {
		t.Fatalf("job status: err=%v snap=%+v", err, snap)
	}

	if _, err := cl.CancelJob(context.Background(), j.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	waitMetric(t, ts, "tkserve_jobs_canceled_total", 1)
	if snap, _ := cl.Job(context.Background(), j.ID); snap.Status != api.StatusCanceled {
		t.Fatalf("job after cancel: %+v", snap)
	}

	_, err = cl.Job(context.Background(), "j999")
	if ae := apiError(t, err); ae.Code != api.CodeNotFound || ae.HTTPStatus != http.StatusNotFound {
		t.Fatalf("unknown job error = %+v", ae)
	}
}

func TestJobsListing(t *testing.T) {
	_, _, cl := newTestServer(t, Config{})
	if _, err := cl.Run(context.Background(), fastRun); err != nil {
		t.Fatal(err)
	}
	jobs, err := cl.Jobs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Kind != "run" || jobs[0].Target != "eon" {
		t.Fatalf("jobs = %+v", jobs)
	}
	if jobs[0].Progress == nil || jobs[0].Progress.Phase != "done" {
		t.Fatalf("finished job progress = %+v", jobs[0].Progress)
	}
}

func TestExperimentEndpoint(t *testing.T) {
	_, ts, cl := newTestServer(t, Config{})

	req := api.ExperimentRequest{Benches: []string{"twolf", "ammp"}, Warmup: 2000, Refs: 8000}
	j, err := cl.Experiment(context.Background(), "fig2", req)
	if err != nil {
		t.Fatalf("experiment: %v", err)
	}
	if j.Status != api.StatusDone {
		t.Fatalf("experiment: %+v", j)
	}
	if len(j.Tables) == 0 || len(j.Tables[0].Rows) != 2 {
		t.Fatalf("experiment tables: %+v", j.Tables)
	}
	// fig2 needs base+perfect per bench: four simulations, all cached now.
	if m := scrape(t, ts); m["tkserve_sim_runs_total"] != 4 {
		t.Fatalf("experiment simulations: %v", m)
	}

	_, err = cl.Experiment(context.Background(), "nope", api.ExperimentRequest{})
	if ae := apiError(t, err); ae.Code != api.CodeNotFound {
		t.Fatalf("unknown experiment error = %+v", ae)
	}
}

// TestExperimentUsesBaseOptions: an experiment starts from the server's
// base options, as a run does, so a server configured for short runs
// simulates short runs for its experiments too.
func TestExperimentUsesBaseOptions(t *testing.T) {
	base := sim.Default()
	base.WarmupRefs = 5000
	base.MeasureRefs = 20_000
	_, ts, cl := newTestServer(t, Config{Base: base})

	j, err := cl.Experiment(context.Background(), "fig2", api.ExperimentRequest{Benches: []string{"eon"}})
	if err != nil {
		t.Fatalf("experiment: %v", err)
	}
	if j.Status != api.StatusDone {
		t.Fatalf("experiment: %+v", j)
	}
	// fig2 runs base and perfect-L1 for the bench: two runs of 5000+20000.
	m := scrape(t, ts)
	if m["tkserve_sim_runs_total"] != 2 || m["tkserve_sim_refs_total"] != 2*25_000 {
		t.Fatalf("experiment simulated %v runs, %v refs; want 2 runs of 25000",
			m["tkserve_sim_runs_total"], m["tkserve_sim_refs_total"])
	}
}

// TestErrorEnvelopeCodes exercises each validation failure and checks the
// structured envelope: stable code, HTTP status, and the accepted-values
// list for unknown names.
func TestErrorEnvelopeCodes(t *testing.T) {
	_, ts, cl := newTestServer(t, Config{})

	cases := []struct {
		name string
		req  api.RunRequest
		code api.ErrorCode
		want []string // substrings that must appear in Accepted
	}{
		{"unknown bench", api.RunRequest{Bench: "not-a-bench"}, api.CodeUnknownBench, []string{"eon", "mcf"}},
		{"unknown victim", api.RunRequest{Bench: "eon", Victim: "decai"}, api.CodeUnknownFilter, []string{"decay", "collins"}},
		{"unknown prefetcher", api.RunRequest{Bench: "eon", Prefetch: "timekeepin"}, api.CodeUnknownFilter, []string{"timekeeping", "dbcp"}},
	}
	for _, tc := range cases {
		_, err := cl.Run(context.Background(), tc.req)
		ae := apiError(t, err)
		if ae.Code != tc.code || ae.HTTPStatus != http.StatusBadRequest {
			t.Errorf("%s: got code=%q status=%d, want %q/400", tc.name, ae.Code, ae.HTTPStatus, tc.code)
		}
		accepted := make(map[string]bool, len(ae.Accepted))
		for _, a := range ae.Accepted {
			accepted[a] = true
		}
		for _, want := range tc.want {
			if !accepted[want] {
				t.Errorf("%s: accepted list %v missing %q", tc.name, ae.Accepted, want)
			}
		}
	}

	// Malformed JSON cannot go through the typed client.
	resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty body = %d", resp.StatusCode)
	}

	if m := scrape(t, ts); m["tkserve_sim_runs_total"] != 0 {
		t.Fatalf("invalid requests simulated: %v", m)
	}
}

func TestBoundedQueueRejectsOverflow(t *testing.T) {
	_, ts, cl := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	j1, err := cl.RunAsync(context.Background(), foreverRun)
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	waitMetric(t, ts, "tkserve_jobs_running", 1) // worker busy
	j2, err := cl.RunAsync(context.Background(), foreverRun)
	if err != nil {
		t.Fatalf("second submit: %v", err)
	}
	_, err = cl.RunAsync(context.Background(), foreverRun) // queue full
	if ae := apiError(t, err); ae.Code != api.CodeQueueFull || ae.HTTPStatus != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit error = %+v", ae)
	}

	for _, id := range []string{j1.ID, j2.ID} {
		if _, err := cl.CancelJob(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	waitMetric(t, ts, "tkserve_jobs_canceled_total", 2)
}

// TestQueuedCancelStartsNoFlight: a run job cancelled while it waits in
// the queue starts no simulation when the worker picks it up — the cache
// counts no miss for it and its view reports no cache outcome.
func TestQueuedCancelStartsNoFlight(t *testing.T) {
	cache := simcache.New()
	_, ts, cl := newTestServer(t, Config{Workers: 1, Cache: cache})

	j1, err := cl.RunAsync(context.Background(), foreverRun)
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	waitMetric(t, ts, "tkserve_cache_inflight", 1) // the one worker is simulating
	j2, err := cl.RunAsync(context.Background(), fastRun)
	if err != nil {
		t.Fatalf("second submit: %v", err)
	}
	for _, id := range []string{j2.ID, j1.ID} { // j2 while it is still queued
		if _, err := cl.CancelJob(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	waitMetric(t, ts, "tkserve_jobs_canceled_total", 2)

	if st := cache.Stats(); st.Misses != 1 {
		t.Fatalf("cache counted %d misses, want 1 (the running job's): %+v", st.Misses, st)
	}
	snap, err := cl.Job(context.Background(), j2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Status != api.StatusCanceled || snap.Cache != "" {
		t.Fatalf("job cancelled while queued: status %q, cache %q", snap.Status, snap.Cache)
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	s, _, cl := newTestServer(t, Config{})

	if _, err := cl.Run(context.Background(), fastRun); err != nil {
		t.Fatalf("run: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drained shutdown returned %v", err)
	}
	// Submissions after shutdown are rejected with the draining code.
	_, err := cl.Run(context.Background(), fastRun)
	if ae := apiError(t, err); ae.Code != api.CodeDraining || ae.HTTPStatus != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submit error = %+v", ae)
	}
}

// TestRequestBodyCap: a body past 1 MiB on either decoding endpoint gets
// 413 with the bad_request envelope naming the cap; a normal request
// still runs.
func TestRequestBodyCap(t *testing.T) {
	_, ts, cl := newTestServer(t, Config{})
	big := `{"bench":"eon","pad":"` + strings.Repeat("x", 2<<20) + `"}`
	for _, path := range []string{"/v1/run", "/v1/experiments/fig1"} {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var env api.ErrorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil || env.Err == nil {
			t.Fatalf("%s: 2 MiB body answered %d without an error envelope (%v)", path, resp.StatusCode, err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge || env.Err.Code != api.CodeBadRequest ||
			!strings.Contains(env.Err.Message, "1048576") {
			t.Fatalf("%s: 2 MiB body = %d %+v, want 413 bad_request naming the 1048576-byte cap", path, resp.StatusCode, env.Err)
		}
	}
	j, err := cl.Run(context.Background(), fastRun)
	if err != nil || j.Status != api.StatusDone {
		t.Fatalf("normal run after oversized bodies: err=%v job=%+v", err, j)
	}
	if m := scrape(t, ts); m["tkserve_sim_runs_total"] != 1 {
		t.Fatalf("oversized bodies simulated: %v", m)
	}
}

// TestJobTableCap: the job table keeps at most maxFinished finished jobs
// and drops the one that finished longest ago; a running job is never
// dropped, and a dropped ID answers not_found.
func TestJobTableCap(t *testing.T) {
	s, ts, cl := newTestServer(t, Config{Workers: 2})
	s.mgr.mu.Lock()
	s.mgr.maxFinished = 2
	s.mgr.mu.Unlock()
	ctx := context.Background()
	ids := func() []string {
		t.Helper()
		jobs, err := cl.Jobs(ctx)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(jobs))
		for i, j := range jobs {
			out[i] = j.ID
		}
		return out
	}
	gone := func(id string) {
		t.Helper()
		_, err := cl.Job(ctx, id)
		if ae := apiError(t, err); ae.Code != api.CodeNotFound || ae.HTTPStatus != http.StatusNotFound {
			t.Fatalf("dropped job %s = %+v, want not_found", id, ae)
		}
	}

	long, err := cl.RunAsync(ctx, foreverRun) // j1 runs until cancelled
	if err != nil {
		t.Fatal(err)
	}
	waitMetric(t, ts, "tkserve_jobs_running", 1)
	for i := 0; i < 4; i++ { // j2..j5 finish in order
		if _, err := cl.Run(ctx, fastRun); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := ids(), []string{"j1", "j4", "j5"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("job table = %v, want %v", got, want)
	}
	gone("j2")
	gone("j3")

	// j1 finishes last, so j4 — the oldest finished job — makes room.
	if _, err := cl.CancelJob(ctx, long.ID); err != nil {
		t.Fatal(err)
	}
	waitMetric(t, ts, "tkserve_jobs_canceled_total", 1)
	if got, want := ids(), []string{"j1", "j5"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("job table after j1 finished = %v, want %v", got, want)
	}
	gone("j4")
	if j, err := cl.Job(ctx, long.ID); err != nil || j.Status != api.StatusCanceled {
		t.Fatalf("j1 after cancel: err=%v job=%+v", err, j)
	}
}
