package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"timekeeping/pkg/api"
)

// buildTkserve compiles the real binary once per test.
func buildTkserve(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "tkserve")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building tkserve: %v", err)
	}
	return bin
}

// reservePort grabs a free localhost port. The close-to-bind window is
// fine for a smoke test.
func reservePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// startNode launches one tkserve process and arranges SIGTERM cleanup.
func startNode(t *testing.T, bin string, args ...string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting tkserve: %v", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-exited:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			t.Error("tkserve did not exit on SIGTERM")
		}
	})
}

// metricsMap scrapes a node's /metrics into name -> value.
func metricsMap(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
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

// TestClusterSmoke runs a real two-node fleet — two processes, sharded
// by -peers, each with its own disk tier — and checks the fleet-wide
// exactly-once property: the same configuration submitted to both nodes
// simulates once, with one request answered by proxy.
func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping binary smoke test")
	}
	bin := buildTkserve(t)
	addrA, addrB := reservePort(t), reservePort(t)
	urlA, urlB := "http://"+addrA, "http://"+addrB
	peers := urlA + "," + urlB

	startNode(t, bin, "-addr", addrA, "-workers", "2",
		"-node-id", urlA, "-peers", peers, "-store-dir", filepath.Join(t.TempDir(), "a"))
	startNode(t, bin, "-addr", addrB, "-workers", "2",
		"-node-id", urlB, "-peers", peers, "-store-dir", filepath.Join(t.TempDir(), "b"))
	waitHealthy(t, urlA)
	waitHealthy(t, urlB)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req := api.RunRequest{Bench: "eon", Warmup: 2000, Refs: 8000}

	jA, err := api.NewClient(urlA, nil).Run(ctx, req)
	if err != nil {
		t.Fatalf("run via A: %v", err)
	}
	jB, err := api.NewClient(urlB, nil).Run(ctx, req)
	if err != nil {
		t.Fatalf("run via B: %v", err)
	}
	if jA.Result == nil || jB.Result == nil || !reflect.DeepEqual(jA.Result, jB.Result) {
		t.Fatalf("nodes disagree on the result:\n  A %+v\n  B %+v", jA.Result, jB.Result)
	}

	mA, mB := metricsMap(t, urlA), metricsMap(t, urlB)
	if runs := mA["tkserve_sim_runs_total"] + mB["tkserve_sim_runs_total"]; runs != 1 {
		t.Errorf("fleet ran %g simulations, want exactly 1 (A %+v, B %+v)",
			runs, jA.Cache, jB.Cache)
	}
	if proxied := mA["cluster_proxied_total"] + mB["cluster_proxied_total"]; proxied != 1 {
		t.Errorf("fleet proxied %g requests, want exactly 1 (A cache=%s, B cache=%s)",
			proxied, jA.Cache, jB.Cache)
	}
	// One response came straight off the ring owner (miss or hit), the
	// other was proxied to it.
	if (jA.Cache == api.CacheProxied) == (jB.Cache == api.CacheProxied) {
		t.Errorf("cache outcomes A=%s B=%s: exactly one should be proxied", jA.Cache, jB.Cache)
	}

	// The headline trace assertion needs a request whose proxy hop
	// triggers the computation — entry node = non-owner, cold key —
	// otherwise the owner answers from its cache and the trace carries no
	// simulate span. Ownership is per-key, so probe fresh keys (distinct
	// Refs) until one lands on a non-owner: each try is a coin flip, and
	// ten tries make exhaustion astronomically unlikely.
	var traced *api.JobView
	var entryURL string
	for i := 0; i < 10 && traced == nil; i++ {
		entryURL = urlA
		if i%2 == 1 {
			entryURL = urlB
		}
		j, err := api.NewClient(entryURL, nil).Run(ctx,
			api.RunRequest{Bench: "eon", Warmup: 2000, Refs: 8100 + uint64(i)})
		if err != nil {
			t.Fatalf("trace probe %d via %s: %v", i, entryURL, err)
		}
		if j.Cache == api.CacheProxied {
			traced = j
		}
	}
	if traced == nil {
		t.Fatal("no trace probe landed on a non-owner in 10 tries")
	}

	// That proxied request produced ONE distributed trace spanning both
	// processes: entry-side ingress/queue/proxy spans plus the owner's
	// resolve/probe/simulate/persist, all under one trace ID. A plain
	// client reads it from the entry node's /trace.
	if len(traced.TraceID) != 32 {
		t.Fatalf("proxied job carries no trace ID: %q", traced.TraceID)
	}
	var jsonl bytes.Buffer
	if err := api.NewClient(entryURL, nil).JobTrace(ctx, traced.ID, "jsonl", &jsonl); err != nil {
		t.Fatalf("fetching the proxied job's trace: %v", err)
	}
	nodes := make(map[string]bool)
	names := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(jsonl.String()), "\n") {
		var sp struct {
			TraceID string `json:"trace_id"`
			Name    string `json:"name"`
			Node    string `json:"node"`
		}
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if sp.TraceID != traced.TraceID {
			t.Errorf("span %s carries trace %s, want %s", sp.Name, sp.TraceID, traced.TraceID)
		}
		nodes[sp.Node] = true
		names[sp.Name] = true
	}
	if len(nodes) != 2 {
		t.Errorf("trace spans %d nodes, want 2: %v", len(nodes), nodes)
	}
	for _, want := range []string{"ingress", "queue_wait", "proxy", "resolve", "probe_disk", "simulate", "persist"} {
		if !names[want] {
			t.Errorf("trace missing %q span (have %v)", want, names)
		}
	}
	// Persist the Chrome trace for CI artifact upload when asked.
	if dir := os.Getenv("TRACE_ARTIFACT_DIR"); dir != "" {
		resp, err := http.Get(entryURL + "/v1/jobs/" + traced.ID + "/trace")
		if err != nil {
			t.Fatalf("fetching trace artifact: %v", err)
		}
		defer resp.Body.Close()
		blob, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "cluster_trace.json"), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Both nodes serve the aggregated fleet view with matching membership
	// and a polled (or self) load report per peer; per-peer telemetry
	// metrics are exposed alongside.
	for _, base := range []string{urlA, urlB} {
		st, err := api.NewClient(base, nil).ClusterStatus(ctx)
		if err != nil {
			t.Fatalf("cluster status from %s: %v", base, err)
		}
		if st.Self != base || len(st.Peers) != 2 {
			t.Errorf("cluster status from %s = %+v", base, st)
			continue
		}
		var shares float64
		for _, p := range st.Peers {
			shares += p.OwnershipShare
			if p.Saturation < 0 || p.Saturation > 1 {
				t.Errorf("peer %s saturation %g out of [0,1]", p.URL, p.Saturation)
			}
		}
		if shares < 0.999 || shares > 1.001 {
			t.Errorf("ownership shares from %s sum to %g, want 1", base, shares)
		}
	}
	// The eon pair's entry node attributed its hop to the proxy stage
	// histogram (mA/mB were scraped before the trace probes, so only the
	// pair's single hop is in them).
	entryM := mA
	if jB.Cache == api.CacheProxied {
		entryM = mB
	}
	if c := entryM[fmt.Sprintf("tkserve_stage_seconds_count{stage=%q}", "proxy")]; c < 1 {
		t.Errorf("entry node proxy stage count = %g, want >= 1", c)
	}
}

// TestStoreRestartSmoke runs tkserve with a disk tier, kills it, and
// starts a fresh process on the same directory: the repeated request
// must come off disk with zero simulated references.
func TestStoreRestartSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping binary smoke test")
	}
	bin := buildTkserve(t)
	dir := t.TempDir()
	req := api.RunRequest{Bench: "eon", Warmup: 2000, Refs: 8000}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// First life: compute and persist.
	addr1 := reservePort(t)
	cmd := exec.Command(bin, "-addr", addr1, "-workers", "2", "-store-dir", dir)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting tkserve: %v", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	waitHealthy(t, "http://"+addr1)
	j1, err := api.NewClient("http://"+addr1, nil).Run(ctx, req)
	if err != nil {
		t.Fatalf("first-life run: %v", err)
	}
	if j1.Cache != "miss" {
		t.Fatalf("first-life cache = %q, want miss", j1.Cache)
	}
	cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-exited:
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		t.Fatal("first life did not exit on SIGTERM")
	}

	// Second life: a fresh process on the same store directory.
	addr2 := reservePort(t)
	startNode(t, bin, "-addr", addr2, "-workers", "2", "-store-dir", dir)
	base2 := "http://" + addr2
	waitHealthy(t, base2)
	j2, err := api.NewClient(base2, nil).Run(ctx, req)
	if err != nil {
		t.Fatalf("second-life run: %v", err)
	}
	if j2.Cache != api.CacheDisk {
		t.Fatalf("second-life cache = %q, want %q", j2.Cache, api.CacheDisk)
	}
	// The durable store is engine-neutral: a disk-served view carries no
	// engine annotation, so compare with the first life's engine blanked.
	if j1.Result == nil || j2.Result == nil {
		t.Fatalf("missing result: before %+v, after %+v", j1.Result, j2.Result)
	}
	if j2.Result.Engine != "" {
		t.Fatalf("disk-served result engine = %q, want empty", j2.Result.Engine)
	}
	cold := *j1.Result
	cold.Engine = ""
	if !reflect.DeepEqual(&cold, j2.Result) {
		t.Fatalf("restart changed the result:\n  before %+v\n  after  %+v", j1.Result, j2.Result)
	}
	m := metricsMap(t, base2)
	// Absolute values: this process never simulated anything.
	if v := m["sim_l1_accesses_total"]; v != 0 {
		t.Errorf("fresh process simulated: sim_l1_accesses_total = %g, want 0", v)
	}
	if v := m["store_hits_total"]; v != 1 {
		t.Errorf("store_hits_total = %g, want 1", v)
	}
}
