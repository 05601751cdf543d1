package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"sync/atomic"
	"time"

	"timekeeping/internal/cluster"
	"timekeeping/internal/serve"
	"timekeeping/internal/simcache"
	"timekeeping/internal/store"
	"timekeeping/pkg/api"
)

const (
	// clients is the closed loop's caller count: one per CPU of the 2-vCPU
	// machine the benchmark is sized for, each on its own connection.
	clients = 2
	// workers is each node's worker-pool size.
	workers = 2
)

// fleet is an in-process two-node tkserve cluster over loopback: each
// node has its own listener, cluster view, disk store and result cache,
// built from the same public constructors tkserve uses.
type fleet struct {
	dir   string
	nodes []*node
	hc    *http.Client
}

// node is one peer. Its listener stays up for the fleet's life while the
// server behind it can be replaced by a fresh one over the same store,
// as a restarted process would be.
type node struct {
	url     string
	cluster *cluster.Cluster
	store   *store.Store
	http    *http.Server
	served  chan struct{} // closed when http.Serve returns
	client  *api.Client
	tracing bool

	cur atomic.Pointer[generation]
	// retired sums the cache counters of replaced generations.
	retired simcache.Stats
}

// generation is one server instance behind a node's listener.
type generation struct {
	srv     *serve.Server
	cache   *simcache.Store
	handler http.Handler
}

// startFleet brings up two nodes with their stores under a fresh
// directory in e.workdir. tracing sets each server's distributed tracing;
// tkserve ships with it on.
func startFleet(e *env, tracing bool) (*fleet, error) {
	dir, err := os.MkdirTemp(e.workdir, "fleet-")
	if err != nil {
		return nil, err
	}
	f := &fleet{
		dir: dir,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
		}},
	}
	listeners := make([]net.Listener, 2)
	peers := make([]string, len(listeners))
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			f.close()
			return nil, err
		}
		listeners[i] = l
		peers[i] = "http://" + l.Addr().String()
	}
	for i, l := range listeners {
		n, err := startNode(filepath.Join(dir, fmt.Sprint(i)), peers[i], peers, l, tracing, f.hc)
		if err != nil {
			for _, l := range listeners[i:] {
				l.Close()
			}
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
	}
	return f, nil
}

func startNode(dir, self string, peers []string, l net.Listener, tracing bool, hc *http.Client) (*node, error) {
	c, err := cluster.New(cluster.Config{Self: self, Peers: peers})
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		c.Close()
		return nil, err
	}
	c.Start()
	n := &node{url: self, cluster: c, store: st, served: make(chan struct{}), client: api.NewClient(self, hc), tracing: tracing}
	n.renew()
	n.http = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.cur.Load().handler.ServeHTTP(w, r)
	})}
	go func() {
		defer close(n.served)
		n.http.Serve(l) // returns http.ErrServerClosed once close runs
	}()
	return n, nil
}

// renew replaces the node's server with a fresh one and an empty result
// cache over the same store. Call it only between requests: the old
// server is drained on the way out.
func (n *node) renew() {
	cache := simcache.New()
	srv := serve.New(serve.Config{
		Cache:          cache,
		Store:          n.store,
		Cluster:        n.cluster,
		Workers:        workers,
		DisableTracing: !n.tracing,
	})
	if old := n.cur.Swap(&generation{srv: srv, cache: cache, handler: srv.Handler()}); old != nil {
		old.shutdown()
		st := old.cache.Stats()
		n.retired.Hits += st.Hits
		n.retired.Misses += st.Misses
		n.retired.DiskHits += st.DiskHits
	}
}

func (g *generation) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	g.srv.Shutdown(ctx) // an expired drain cancels the stragglers, which is all close needs
}

// renew gives every node a fresh server.
func (f *fleet) renew() {
	for _, n := range f.nodes {
		n.renew()
	}
}

// close stops every node and removes the fleet's stores.
func (f *fleet) close() {
	for _, n := range f.nodes {
		n.http.Close()
		<-n.served
		n.cur.Load().shutdown()
		n.cluster.Close()
		n.store.Close() // writes are synced as they land; the directory goes next
	}
	f.hc.CloseIdleConnections()
	os.RemoveAll(f.dir)
}

// owner returns the index of the node owning req's result key.
func (f *fleet) owner(req api.RunRequest) (int, error) {
	key, err := f.nodes[0].cur.Load().srv.CacheKey(req)
	if err != nil {
		return 0, err
	}
	url, _ := f.nodes[0].cluster.Owner(key)
	for i, n := range f.nodes {
		if n.url == url {
			return i, nil
		}
	}
	return 0, fmt.Errorf("key %s owned by unknown peer %s", key, url)
}

// fleetCounts is a snapshot of the counters the serving checks read.
type fleetCounts struct {
	hits, misses, diskHits, quarantined, fallback uint64
}

func (f *fleet) counts() fleetCounts {
	c := fleetCounts{fallback: cluster.MFallback.Value()}
	for _, n := range f.nodes {
		st := n.cur.Load().cache.Stats()
		c.hits += n.retired.Hits + st.Hits
		c.misses += n.retired.Misses + st.Misses
		c.diskHits += n.retired.DiskHits + st.DiskHits
		c.quarantined += n.store.Stats().Quarantined
	}
	return c
}

func (c fleetCounts) minus(o fleetCounts) fleetCounts {
	return fleetCounts{c.hits - o.hits, c.misses - o.misses, c.diskHits - o.diskHits, c.quarantined - o.quarantined, c.fallback - o.fallback}
}

// reply is what the checks keep of one response.
type reply struct {
	cache  string
	result *api.ResultView
	err    error
}

// closedLoop sends n requests from the fleet's clients, each waiting for
// its reply before sending its next. send(c, i) performs request i from
// client c. It returns the loop's wall time.
func closedLoop(n int, send func(c, i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				send(c, i)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// call sends one run request to node and times it.
func (f *fleet) call(ctx context.Context, node int, req api.RunRequest) (reply, time.Duration) {
	t0 := time.Now()
	j, err := f.nodes[node].client.Run(ctx, req)
	d := time.Since(t0)
	if err != nil {
		return reply{err: err}, d
	}
	if j.Status != api.StatusDone || j.Result == nil {
		return reply{cache: j.Cache, err: fmt.Errorf("job %s %s: %s", j.ID, j.Status, j.Error)}, d
	}
	return reply{cache: j.Cache, result: j.Result}, d
}

// populate sends every request cold to its owner and returns each
// result's canonical view.
func (f *fleet) populate(ctx context.Context, reqs []api.RunRequest, owners []int) ([][]byte, error) {
	views := make([][]byte, len(reqs))
	errs := make([]error, len(reqs))
	closedLoop(len(reqs), func(_, i int) {
		r, _ := f.call(ctx, owners[i], reqs[i])
		if r.err == nil && r.cache != api.CacheMiss {
			r.err = fmt.Errorf("answered %q, want %q", r.cache, api.CacheMiss)
		}
		if r.err == nil {
			views[i], r.err = canonical(r.result)
		}
		errs[i] = r.err
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("populating %s seed %d: %w", reqs[i].Bench, reqs[i].Seed, err)
		}
	}
	return views, nil
}

// engineField matches a result view's engine. Stored results are
// engine-neutral (the disk tier answers without one), so views are
// compared without it.
var engineField = regexp.MustCompile(`"engine":"[^"]*",?`)

// canonical is a view's JSON encoding without its engine.
func canonical(v *api.ResultView) ([]byte, error) {
	b, err := json.Marshal(v)
	return engineField.ReplaceAll(b, nil), err
}

// isQueueFull reports whether err is the server refusing work because
// its queue is full.
func isQueueFull(err error) bool {
	var ae *api.Error
	return errors.As(err, &ae) && ae.Code == api.CodeQueueFull
}
