// Command tkserve runs the simulation service: an HTTP/JSON API over a
// bounded worker pool and the process-wide content-addressed result
// cache, so repeated and concurrent requests for the same configuration
// simulate once.
//
// Usage:
//
//	tkserve -addr :8080
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/v1/capabilities
//	curl -s -X POST localhost:8080/v1/run -d '{"bench":"mcf","prefetch":"timekeeping"}'
//	curl -s -X POST localhost:8080/v1/experiments/fig13 -d '{"benches":["twolf","vpr"]}'
//	curl -s localhost:8080/metrics
//
// With -events, run requests may set "events": true to capture a
// generation-event trace, downloaded via GET /v1/jobs/{id}/events
// (Perfetto-compatible; ?format=jsonl for the compact stream).
//
// With -store-dir, results persist to a durable disk tier beneath the
// in-memory cache: a restarted server answers previously computed
// configurations from disk without re-simulating. -store-max-bytes caps
// the tier's footprint (LRU eviction).
//
// With -peers (and -node-id naming this node's own URL in that list),
// the result keyspace shards across a static fleet on a consistent-hash
// ring: requests whose key another healthy peer owns are proxied there,
// so the fleet simulates each configuration once; a down owner degrades
// to local compute.
//
//	tkserve -addr :8080 -store-dir /var/lib/tkserve \
//	        -node-id http://a:8080 -peers http://a:8080,http://b:8080
//
// Logs are structured (log/slog) with per-request and per-job IDs:
// -log-level sets the threshold, -log-json switches to JSON lines.
//
// SIGINT/SIGTERM begin a graceful shutdown: intake stops, running jobs
// drain, and jobs still unfinished at -drain-timeout are cancelled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"timekeeping/internal/caps"
	"timekeeping/internal/cluster"
	"timekeeping/internal/serve"
	"timekeeping/internal/sim"
	"timekeeping/internal/store"
)

// Connection timeouts. A client gets readHeaderTimeout to send its request
// headers and an idle keep-alive connection closes after idleTimeout.
// There is no write timeout: a progress stream stays open for as long as
// its job runs.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// printVersion writes the binary's build identity (module version, VCS
// revision, Go toolchain) from the embedded build info.
func printVersion(name string) {
	b := caps.Build()
	ver, rev := b.Version, b.Revision
	if ver == "" {
		ver = "devel"
	}
	if rev == "" {
		rev = "unknown"
	}
	if b.Modified {
		rev += "-dirty"
	}
	fmt.Printf("%s %s (revision %s, %s)\n", name, ver, rev, b.GoVersion)
}

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
		depth    = flag.Int("queue", 64, "bounded job-queue depth (extra submissions get 503)")
		warmup   = flag.Uint64("warmup", 0, "default warm-up references per run (0 = sim default)")
		refs     = flag.Uint64("refs", 0, "default measured references per run (0 = sim default)")
		seed     = flag.Uint64("seed", 0, "default workload seed (0 = sim default)")
		drain    = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for running jobs")
		pprof    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		events   = flag.Bool("events", false, "allow run requests to capture generation-event traces (GET /v1/jobs/{id}/events)")
		evCap    = flag.Int("events-cap", 0, "per-job event ring capacity with -events (0 = 65536)")
		logLevel = flag.String("log-level", "info", "log threshold: debug | info | warn | error")
		logJSON  = flag.Bool("log-json", false, "emit logs as JSON lines instead of text")
		storeDir = flag.String("store-dir", "", "durable result-store directory (empty = memory-only cache)")
		storeMax = flag.Int64("store-max-bytes", 0, "disk-tier size cap in bytes with LRU eviction (0 = unlimited)")
		peers    = flag.String("peers", "", "comma-separated static peer URLs for sharded serving (requires -node-id)")
		nodeID   = flag.String("node-id", "", "this node's own URL; must appear in -peers")
		tracing  = flag.Bool("tracing", true, "record per-request distributed traces (GET /v1/jobs/{id}/trace)")
		slowReq  = flag.Duration("slow-request", 0, "log a warning for jobs slower than this (0 = 10s, negative = off)")
		version  = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		printVersion("tkserve")
		return
	}
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "tkserve: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	hopts := &slog.HandlerOptions{Level: level}
	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, hopts)
	} else {
		handler = slog.NewTextHandler(os.Stderr, hopts)
	}
	logger := slog.New(handler)
	slog.SetDefault(logger) // sim-layer warnings (e.g. ignored TK_AUDIT) share the handler

	base := sim.Default()
	if *warmup > 0 {
		base.WarmupRefs = *warmup
	}
	if *refs > 0 {
		base.MeasureRefs = *refs
	}
	if *seed > 0 {
		base.Seed = *seed
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, store.Options{MaxBytes: *storeMax, Logger: logger})
		if err != nil {
			fmt.Fprintf(os.Stderr, "tkserve: opening -store-dir: %v\n", err)
			os.Exit(2)
		}
		defer st.Close()
		logger.Info("durable result store open", "dir", *storeDir, "entries", st.Stats().Entries, "bytes", st.Stats().Bytes)
	}

	var cls *cluster.Cluster
	if *peers != "" {
		if *nodeID == "" {
			fmt.Fprintln(os.Stderr, "tkserve: -peers requires -node-id (this node's own URL in the list)")
			os.Exit(2)
		}
		var err error
		cls, err = cluster.New(cluster.Config{
			Self:   *nodeID,
			Peers:  strings.Split(*peers, ","),
			Logger: logger,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "tkserve: %v\n", err)
			os.Exit(2)
		}
		cls.Start()
		defer cls.Close()
		logger.Info("cluster sharding on", "self", *nodeID, "peers", *peers)
	}

	srv := serve.New(serve.Config{
		Base:           base,
		Workers:        *workers,
		QueueDepth:     *depth,
		Pprof:          *pprof,
		Events:         *events,
		EventsCap:      *evCap,
		Logger:         logger,
		Store:          st,
		Cluster:        cls,
		DisableTracing: !*tracing,
		SlowRequest:    *slowReq,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "workers", *workers, "queue", *depth, "events", *events)

	select {
	case err := <-errCh:
		logger.Error("serve failed", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	logger.Info("shutting down, draining jobs", "budget", drain.String())
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		logger.Warn("http shutdown", "error", err)
	}
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("job drain", "error", err)
	}
	logger.Info("bye")
}
