package serve

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"timekeeping/internal/cluster"
	"timekeeping/internal/simcache"
	"timekeeping/internal/store"
	"timekeeping/pkg/api"
)

// openStore opens a disk tier in dir and closes it with the test.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestRestartDurability is the tier's reason to exist: a result computed
// before a restart is served from disk after it — zero simulated
// references, one disk hit, and a byte-identical result view.
func TestRestartDurability(t *testing.T) {
	dir := t.TempDir()

	st1 := openStore(t, dir)
	cache1 := simcache.New()
	_, ts1, cl1 := newTestServer(t, Config{Cache: cache1, Store: st1})
	first, err := cl1.Run(context.Background(), fastRun)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if first.Cache != string(simcache.Miss) {
		t.Fatalf("cold run cache = %q, want miss", first.Cache)
	}
	ts1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh store handle on the same directory and a fresh
	// in-memory cache, as a new process would have.
	st2 := openStore(t, dir)
	cache2 := simcache.New()
	_, ts2, cl2 := newTestServer(t, Config{Cache: cache2, Store: st2})

	before := scrape(t, ts2)
	second, err := cl2.Run(context.Background(), fastRun)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	after := scrape(t, ts2)

	if second.Cache != api.CacheDisk {
		t.Fatalf("post-restart cache = %q, want %q", second.Cache, api.CacheDisk)
	}
	if second.Result == nil {
		t.Fatal("disk-served run returned no result")
	}
	if !reflect.DeepEqual(first.Result, second.Result) {
		t.Fatalf("disk tier returned a different result:\n  cold %+v\n  warm %+v", first.Result, second.Result)
	}
	if d := after["sim_l1_accesses_total"] - before["sim_l1_accesses_total"]; d != 0 {
		t.Fatalf("restart re-simulated: sim_l1_accesses_total grew by %g", d)
	}
	if d := after["store_hits_total"] - before["store_hits_total"]; d != 1 {
		t.Fatalf("store_hits_total grew by %g, want 1", d)
	}
	if runs := cache2.Stats().Runs; runs != 0 {
		t.Fatalf("post-restart cache ran %d simulations, want 0", runs)
	}
	if hits := cache2.Stats().DiskHits; hits != 1 {
		t.Fatalf("post-restart cache disk hits = %d, want 1", hits)
	}
}

// TestCorruptEntryRecomputed flips a byte in the stored entry between
// restarts: the tier must quarantine it and the server must recompute,
// never serve the damaged payload.
func TestCorruptEntryRecomputed(t *testing.T) {
	dir := t.TempDir()

	st1 := openStore(t, dir)
	_, _, cl1 := newTestServer(t, Config{Cache: simcache.New(), Store: st1})
	if _, err := cl1.Run(context.Background(), fastRun); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	entries, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("entries on disk = %v (err %v), want exactly one", entries, err)
	}
	blob, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	damaged := strings.Replace(string(blob), `"TotalRefs":`, `"TotalRefz":`, 1)
	if damaged == string(blob) {
		t.Fatal("corruption target not found in entry")
	}
	if err := os.WriteFile(entries[0], []byte(damaged), 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	cache2 := simcache.New()
	_, ts2, cl2 := newTestServer(t, Config{Cache: cache2, Store: st2})
	before := scrape(t, ts2)
	j, err := cl2.Run(context.Background(), fastRun)
	if err != nil {
		t.Fatalf("run over corrupt entry: %v", err)
	}
	after := scrape(t, ts2)

	if j.Cache != string(simcache.Miss) {
		t.Fatalf("corrupt entry served: cache = %q, want miss", j.Cache)
	}
	if d := after["store_quarantined_total"] - before["store_quarantined_total"]; d != 1 {
		t.Fatalf("store_quarantined_total grew by %g, want 1", d)
	}
	if runs := cache2.Stats().Runs; runs != 1 {
		t.Fatalf("simulations after corruption = %d, want 1 (recompute)", runs)
	}
}

// clusterNode is one in-process tkserve peer: its own cache, cluster view
// and listener, sharing the fleet's peer list.
type clusterNode struct {
	url   string
	cache *simcache.Store
	srv   *Server
	cl    *api.Client
	ts    *httptest.Server
}

// newClusterFleet brings up n in-process peers. Listeners are created
// first so every node knows the full peer list before serving.
func newClusterFleet(t *testing.T, n int) []*clusterNode {
	t.Helper()
	listeners := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		peers[i] = "http://" + l.Addr().String()
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		c, err := cluster.New(cluster.Config{
			Self:          peers[i],
			Peers:         peers,
			ProbeInterval: 10 * time.Millisecond,
			ProbeTimeout:  250 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		c.Start()
		cache := simcache.New()
		s := New(Config{Cache: cache, Cluster: c})
		ts := &httptest.Server{Listener: listeners[i], Config: &http.Server{Handler: s.Handler()}}
		ts.Start()
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		})
		nodes[i] = &clusterNode{url: peers[i], cache: cache, srv: s, cl: api.NewClient(peers[i], nil), ts: ts}
	}
	return nodes
}

// ownerOf returns which fleet node owns the request's key.
func ownerOf(t *testing.T, nodes []*clusterNode, req api.RunRequest) (owner, other *clusterNode) {
	t.Helper()
	key, err := nodes[0].srv.CacheKey(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if o, _ := n.srv.cluster.Owner(key); o == n.url {
			owner = n
		} else {
			other = n
		}
	}
	if owner == nil || other == nil {
		t.Fatalf("fleet did not split ownership for key %s", key)
	}
	return owner, other
}

// TestClusterExactlyOnce: a request landing on the non-owning node is
// proxied to its owner, the fleet simulates it exactly once, and a repeat
// on the owner is a plain cache hit.
func TestClusterExactlyOnce(t *testing.T) {
	nodes := newClusterFleet(t, 2)
	owner, other := ownerOf(t, nodes, fastRun)

	j, err := other.cl.Run(context.Background(), fastRun)
	if err != nil {
		t.Fatalf("run via non-owner: %v", err)
	}
	if j.Cache != api.CacheProxied {
		t.Fatalf("non-owner cache = %q, want %q", j.Cache, api.CacheProxied)
	}
	if j.Result == nil || j.Result.TotalRefs == 0 {
		t.Fatalf("proxied result = %+v", j.Result)
	}
	if runs := owner.cache.Stats().Runs + other.cache.Stats().Runs; runs != 1 {
		t.Fatalf("fleet ran %d simulations, want exactly 1", runs)
	}
	if runs := other.cache.Stats().Runs; runs != 0 {
		t.Fatalf("non-owner simulated locally (%d runs)", runs)
	}

	// The owner now holds the result: asking it directly is a cache hit,
	// still one simulation fleet-wide.
	j2, err := owner.cl.Run(context.Background(), fastRun)
	if err != nil {
		t.Fatalf("run via owner: %v", err)
	}
	if j2.Cache != string(simcache.Hit) {
		t.Fatalf("owner cache = %q, want hit", j2.Cache)
	}
	if !reflect.DeepEqual(j.Result, j2.Result) {
		t.Fatalf("proxied and owner results differ:\n  proxied %+v\n  owner   %+v", j.Result, j2.Result)
	}
	if runs := owner.cache.Stats().Runs + other.cache.Stats().Runs; runs != 1 {
		t.Fatalf("fleet ran %d simulations, want exactly 1", runs)
	}
}

// TestClusterFallbackWhenOwnerDown: when the owning peer is marked down,
// the receiving node computes locally instead of failing the request.
func TestClusterFallbackWhenOwnerDown(t *testing.T) {
	// One live node plus one dead peer that owns part of the keyspace.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + l.Addr().String()
	l.Close() // nothing will ever answer here
	live, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := "http://" + live.Addr().String()

	c, err := cluster.New(cluster.Config{
		Self:          self,
		Peers:         []string{self, dead},
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  100 * time.Millisecond,
		FailAfter:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.Start()
	cache := simcache.New()
	s := New(Config{Cache: cache, Cluster: c})
	ts := &httptest.Server{Listener: live, Config: &http.Server{Handler: s.Handler()}}
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	cl := api.NewClient(self, nil)

	// Find a request the dead peer owns (the seed participates in the
	// key, so walking it walks the ring).
	req := fastRun
	for seed := uint64(1); ; seed++ {
		req.Seed = seed
		key, err := s.CacheKey(req)
		if err != nil {
			t.Fatal(err)
		}
		if owner, _ := c.Owner(key); owner == dead {
			break
		}
		if seed > 200 {
			t.Fatal("no seed in 1..200 hashes to the dead peer")
		}
	}

	// Wait for the prober to mark the peer down, then run: local compute,
	// not an error, and the fallback counter moves.
	deadline := time.Now().Add(5 * time.Second)
	for c.Healthy(dead) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if c.Healthy(dead) {
		t.Fatal("dead peer never marked down")
	}

	before := scrapeURL(t, self)
	j, err := cl.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("run with dead owner: %v", err)
	}
	after := scrapeURL(t, self)
	if j.Cache != string(simcache.Miss) {
		t.Fatalf("fallback cache = %q, want miss (computed here)", j.Cache)
	}
	if runs := cache.Stats().Runs; runs != 1 {
		t.Fatalf("local simulations = %d, want 1", runs)
	}
	if d := after["cluster_fallback_total"] - before["cluster_fallback_total"]; d != 1 {
		t.Fatalf("cluster_fallback_total grew by %g, want 1", d)
	}
}

// TestClusterProxyFailureFallsBack: the owner looks healthy (prober has
// not run) but is unreachable — the proxy attempt fails and the node
// computes locally rather than failing the request.
func TestClusterProxyFailureFallsBack(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + l.Addr().String()
	l.Close()
	live, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := "http://" + live.Addr().String()

	c, err := cluster.New(cluster.Config{Self: self, Peers: []string{self, dead}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	// No Start(): the dead peer stays optimistically "up", forcing the
	// proxy path to discover the failure itself.
	cache := simcache.New()
	s := New(Config{Cache: cache, Cluster: c})
	ts := &httptest.Server{Listener: live, Config: &http.Server{Handler: s.Handler()}}
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	cl := api.NewClient(self, nil)

	req := fastRun
	for seed := uint64(1); ; seed++ {
		req.Seed = seed
		key, err := s.CacheKey(req)
		if err != nil {
			t.Fatal(err)
		}
		if owner, _ := c.Owner(key); owner == dead {
			break
		}
		if seed > 200 {
			t.Fatal("no seed in 1..200 hashes to the dead peer")
		}
	}

	j, err := cl.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("run with unreachable owner: %v", err)
	}
	if j.Cache != string(simcache.Miss) {
		t.Fatalf("cache = %q, want miss (computed here after failed proxy)", j.Cache)
	}
	if runs := cache.Stats().Runs; runs != 1 {
		t.Fatalf("local simulations = %d, want 1", runs)
	}
}

// scrapeURL is scrape for servers not wrapped in newTestServer.
func scrapeURL(t *testing.T, base string) map[string]float64 {
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
