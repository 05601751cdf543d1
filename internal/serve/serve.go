// Package serve implements tkserve, a long-running simulation service: an
// HTTP/JSON API over a bounded worker-pool job queue, backed by the
// process-wide content-addressed result cache (internal/simcache), so
// concurrent and repeated requests for the same configuration simulate
// once. Client disconnects and deadlines cancel in-flight simulations at
// reference-loop granularity.
//
// The wire contract — request/response types, the error envelope with its
// stable codes, and the progress-event stream — lives in pkg/api, which
// also provides the typed client; this package is the implementation.
//
// Endpoints:
//
//	GET    /v1/capabilities          advertise engines, benches, filters, features
//	POST   /v1/run                   run one simulation (async with "async":true)
//	POST   /v1/experiments/{id}      regenerate a paper figure/table/ablation
//	GET    /v1/jobs                  list jobs
//	GET    /v1/jobs/{id}             job status + result
//	GET    /v1/jobs/{id}/progress    SSE stream of progress snapshots
//	GET    /v1/jobs/{id}/events      download the job's generation-event trace
//	GET    /v1/jobs/{id}/trace       download the request's distributed trace
//	DELETE /v1/jobs/{id}             cancel a job
//	GET    /v1/load                  this node's load report (doubles as cluster liveness)
//	GET    /v1/cluster/status        aggregated fleet view (ring, health, saturation)
//	GET    /healthz                  liveness
//	GET    /metrics                  Prometheus-style text metrics (obs registry)
//	GET    /debug/pprof/*            profiling (only with Config.Pprof)
//
// Telemetry: every request carries a request ID (the inbound X-Request-Id
// when present, minted otherwise) on its log lines, and run/experiment
// requests get a distributed trace — W3C-traceparent IDs joined across
// proxy hops, per-stage spans (validate, queue wait, disk probe,
// simulate, persist, proxy, respond), exported by /v1/jobs/{id}/trace.
// Stage latencies also feed the tkserve_stage_seconds histograms whether
// or not tracing is on.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"timekeeping/internal/caps"
	"timekeeping/internal/cluster"
	"timekeeping/internal/events"
	"timekeeping/internal/experiments"
	"timekeeping/internal/obs"
	"timekeeping/internal/sample"
	"timekeeping/internal/sim"
	"timekeeping/internal/simcache"
	"timekeeping/internal/store"
	"timekeeping/internal/telemetry"
	"timekeeping/internal/workload"
	"timekeeping/pkg/api"
)

// Config sizes the service.
type Config struct {
	// Base is the option set each request mutates (zero value:
	// sim.Default()).
	Base sim.Options
	// Workers is the worker-pool size (0: GOMAXPROCS).
	Workers int
	// QueueDepth bounds queued-but-not-running jobs (0: 64); submissions
	// beyond it get 503.
	QueueDepth int
	// Cache is the shared result store (nil: simcache.Default).
	Cache *simcache.Store
	// Store, when set, becomes the durable disk tier beneath Cache:
	// results survive restarts, and a fresh process answers repeated
	// configurations from disk without re-simulating. The server does not
	// own the store; the caller opens and closes it.
	Store *store.Store
	// Cluster, when set, shards the result keyspace across a static peer
	// fleet: run requests whose key another healthy peer owns are proxied
	// there (so the fleet simulates each configuration once), and computed
	// locally when the owner is down. The server does not own the cluster;
	// the caller starts and closes it.
	Cluster *cluster.Cluster
	// Pprof mounts net/http/pprof under /debug/pprof/ when set.
	Pprof bool
	// Events allows run requests to capture generation-event traces
	// (internal/events), downloadable via GET /v1/jobs/{id}/events.
	// Off by default: capture holds up to EventsCap events per job in
	// memory for the job's lifetime.
	Events bool
	// EventsCap bounds each job's event ring — the size cap on what
	// /v1/jobs/{id}/events can return (0: events.DefaultCap). Oldest
	// events drop on overflow.
	EventsCap int
	// Logger receives structured request and job lifecycle logs (nil:
	// logging disabled — the handler is off at every level, so no log
	// line is built or formatted).
	Logger *slog.Logger
	// Node labels this node's spans and load report. Empty: the cluster
	// self URL when clustered, else "local".
	Node string
	// DisableTracing turns off distributed trace recording (the zero
	// value keeps tracing on). Recording is not free: in process on a
	// 2-vCPU Xeon, a traced cache hit measured 1.05–1.28× the untraced
	// p50 (119–143 µs against 104–125 µs); TestTelemetryOverhead logs
	// the paired ratios. Stage histograms stay on either way.
	DisableTracing bool
	// SlowRequest is the job wall-time threshold above which one warning
	// log line names the trace and its dominant stage (0: 10s; negative:
	// disabled).
	SlowRequest time.Duration
}

// Server is one tkserve instance. Create with New; serve s.Handler().
type Server struct {
	base      sim.Options
	cache     *simcache.Store
	store     *store.Store
	cluster   *cluster.Cluster
	reg       *obs.Registry
	mgr       *manager
	mux       *http.ServeMux
	log       *slog.Logger
	events    bool
	eventsCap int
	reqSeq    atomic.Uint64

	// Telemetry plane (see telemetry.go, load.go).
	node       string
	tracing    bool
	slowReq    time.Duration
	startAt    time.Time
	workers    int
	queueCap   int
	stageHists map[string]*obs.Histogram // immutable after New

	// Routing-outcome counters for this server's ProxiedRatio; the
	// process-wide cluster.M* counters would mix nodes in in-process
	// fleet tests.
	nProxied, nLocal, nFallback atomic.Uint64

	// refsRate sampling state (load.go).
	rateMu     sync.Mutex
	lastRateAt time.Time
	lastRefs   uint64
	lastRate   float64
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Cache == nil {
		cfg.Cache = simcache.Default
	}
	if cfg.Base.MeasureRefs == 0 {
		// An unset base config (Options is not comparable): no run can
		// have MeasureRefs == 0, so it marks the zero value.
		cfg.Base = sim.Default()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(offHandler{})
	}
	if cfg.Store != nil {
		cfg.Cache.SetTier(cfg.Store)
	}
	if cfg.Node == "" {
		if cfg.Cluster != nil {
			cfg.Node = cfg.Cluster.Self()
		} else {
			cfg.Node = "local"
		}
	}
	if cfg.SlowRequest == 0 {
		cfg.SlowRequest = 10 * time.Second
	}
	reg := obs.NewRegistry()
	s := &Server{
		base:      cfg.Base,
		cache:     cfg.Cache,
		store:     cfg.Store,
		cluster:   cfg.Cluster,
		reg:       reg,
		log:       cfg.Logger,
		events:    cfg.Events,
		eventsCap: cfg.EventsCap,
		node:      cfg.Node,
		tracing:   !cfg.DisableTracing,
		slowReq:   cfg.SlowRequest,
		startAt:   time.Now(),
		workers:   cfg.Workers,
		queueCap:  cfg.QueueDepth,
	}
	s.registerStageMetrics()
	s.mgr = newManager(cfg.Workers, cfg.QueueDepth, reg, cfg.Logger, s)
	s.registerMetrics()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/capabilities", s.handleCapabilities)
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/experiments/{id}", s.handleExperiment)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/progress", s.handleProgress)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/load", s.handleLoad)
	s.mux.HandleFunc("GET /v1/cluster/status", s.handleClusterStatus)
	if cfg.Pprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the service's HTTP handler: the API mux wrapped in
// per-request structured logging (request IDs on every line). A
// well-formed inbound X-Request-Id is reused instead of minted, so one
// request keeps one ID across proxy hops and both nodes' logs correlate;
// the ID always comes back on the response header.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := sanitizeRequestID(r.Header.Get(api.HeaderRequestID))
		if rid == "" {
			rid = fmt.Sprintf("r%d", s.reqSeq.Add(1))
		}
		w.Header().Set(api.HeaderRequestID, rid)
		r = r.WithContext(withRequestID(r.Context(), rid))
		if !s.log.Enabled(r.Context(), slog.LevelInfo) {
			s.mux.ServeHTTP(w, r)
			return
		}
		lw := &loggingWriter{ResponseWriter: w}
		start := time.Now()
		s.mux.ServeHTTP(lw, r)
		args := []any{
			"request_id", rid,
			"method", r.Method,
			"path", r.URL.Path,
			"status", lw.status(),
			"bytes", lw.bytes,
			"dur_ms", float64(time.Since(start)) / float64(time.Millisecond),
			"remote", r.RemoteAddr,
		}
		if tid := lw.Header().Get(api.HeaderTraceID); tid != "" {
			args = append(args, "trace_id", tid)
		}
		s.log.Info("request", args...)
	})
}

// loggingWriter records the status code and byte count for the request
// log. It forwards Flush so SSE streaming (/progress) keeps working
// through the wrapper.
type loggingWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *loggingWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *loggingWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Flush implements http.Flusher when the underlying writer does.
func (w *loggingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *loggingWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// offHandler is the slog.Handler behind a nil Config.Logger: disabled at
// every level, so a log call returns before building its record. It does
// what slog.DiscardHandler does, which needs Go 1.24; go.mod targets 1.22.
type offHandler struct{}

func (offHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (offHandler) Handle(context.Context, slog.Record) error { return nil }
func (h offHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h offHandler) WithGroup(string) slog.Handler           { return h }

// Registry returns the server's metrics registry (service-level metrics;
// the simulator core's cumulative counters live in obs.Default).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Shutdown stops intake and drains the job queue; jobs still unfinished
// when ctx expires are cancelled. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error { return s.mgr.shutdown(ctx) }

// legacyEngines are the engine names old clients may still send. Every
// run takes the one engine, so the field is checked and then ignored.
var legacyEngines = []string{"auto", "fast", "reference"}

// checkEngine accepts a deprecated engine name ("" or a legacy one) and
// rejects any other value with a bad_request naming the accepted list.
func checkEngine(name string) *api.Error {
	if name == "" {
		return nil
	}
	for _, n := range legacyEngines {
		if name == n {
			return nil
		}
	}
	return &api.Error{
		Code:     api.CodeBadRequest,
		Message:  fmt.Sprintf("unknown engine %q (the field is deprecated and ignored)", name),
		Accepted: legacyEngines,
	}
}

// options resolves the request against the server's base configuration.
// The *api.Error return carries the stable code and accepted-values list.
func (s *Server) options(req api.RunRequest) (sim.Options, *api.Error) {
	opt := s.base
	if aerr := checkEngine(req.Engine); aerr != nil {
		return sim.Options{}, aerr
	}
	vf, err := sim.ParseVictimFilter(req.Victim)
	if err != nil {
		return sim.Options{}, filterError(err)
	}
	pf, err := sim.ParsePrefetcher(req.Prefetch)
	if err != nil {
		return sim.Options{}, filterError(err)
	}
	opt.VictimFilter = vf
	opt.Prefetcher = pf
	if req.VictimEntries > 0 {
		opt.VictimEntries = req.VictimEntries
	}
	opt.Hier.PerfectL1 = req.Perfect
	opt.Track = req.Track
	opt.DropSWPrefetch = req.DropSWPrefetch
	if req.Warmup > 0 {
		opt.WarmupRefs = req.Warmup
	}
	if req.Refs > 0 {
		opt.MeasureRefs = req.Refs
	}
	if req.Seed > 0 {
		opt.Seed = req.Seed
	}
	if req.Sampling != nil {
		pol := samplingPolicy(req.Sampling)
		if aerr := checkSampling(pol, opt.Audit, opt.MeasureRefs); aerr != nil {
			return sim.Options{}, aerr
		}
		opt.Sampling = pol
	}
	return opt, nil
}

// samplingPolicy converts the wire policy to the simulator's.
func samplingPolicy(p *api.SamplingPolicy) *sample.Policy {
	if p == nil {
		return nil
	}
	return &sample.Policy{
		DetailedRefs:     p.DetailedRefs,
		WarmRefs:         p.WarmRefs,
		DetailedWarmRefs: p.DetailedWarmRefs,
		NominalCPI:       p.NominalCPI,
		TargetRelCI:      p.TargetRelCI,
		MinWindows:       p.MinWindows,
		MaxWindows:       p.MaxWindows,
		SegmentWindows:   p.SegmentWindows,
		Parallelism:      p.Parallelism,
		Schedule:         p.Schedule,
		PhaseIntervals:   p.PhaseIntervals,
		PhaseK:           p.PhaseK,
		PhaseSeed:        p.PhaseSeed,
	}
}

// checkSampling rejects, with a bad_request, an invalid policy, one whose
// window budget over measureRefs references is out of range, and the
// sampling+audit combination, rather than failing the job. Policy errors
// keep the accepted values sample attaches to them.
func checkSampling(pol *sample.Policy, audit bool, measureRefs uint64) *api.Error {
	if pol == nil {
		return nil
	}
	err := pol.Validate()
	if err == nil {
		_, err = pol.WindowBudget(measureRefs)
	}
	if err != nil {
		aerr := &api.Error{Code: api.CodeBadRequest, Message: err.Error()}
		var pe *sample.PolicyError
		if errors.As(err, &pe) {
			aerr.Accepted = pe.Accepted
		}
		return aerr
	}
	if audit {
		return &api.Error{Code: api.CodeBadRequest, Message: sim.ErrSampledAudit.Error()}
	}
	return nil
}

// filterError maps a sim parse error onto the wire error, preserving the
// accepted-values list.
func filterError(err error) *api.Error {
	var uv *sim.UnknownValueError
	if errors.As(err, &uv) {
		return &api.Error{Code: api.CodeUnknownFilter, Message: err.Error(), Accepted: uv.Accepted}
	}
	return &api.Error{Code: api.CodeBadRequest, Message: err.Error()}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	var req api.RunRequest
	if !decodeBody(w, r, &req) {
		return
	}
	spec, err := workload.Profile(req.Bench)
	if err != nil {
		writeError(w, http.StatusBadRequest, &api.Error{
			Code: api.CodeUnknownBench, Message: err.Error(), Accepted: workload.Names(),
		})
		return
	}
	opt, aerr := s.options(req)
	if aerr != nil {
		writeError(w, http.StatusBadRequest, aerr)
		return
	}
	if req.Events && !s.events {
		writeError(w, http.StatusBadRequest, &api.Error{
			Code:    api.CodeBadRequest,
			Message: "event capture is disabled on this server (start tkserve with -events)",
		})
		return
	}

	// The request is valid: open (or join, via an inbound traceparent) its
	// trace and surface the trace ID on the response so a client can fetch
	// the timeline without parsing the body. A capture records its run
	// spans on that trace, or on its own when tracing is off.
	tr := s.newTrace(r)
	var sink *events.Sink
	if req.Events {
		sink = events.NewSink(events.Config{Cap: s.eventsCap}, tr)
	}
	now := time.Now()
	tr.Span(stageValidate, t0, now, "bench", spec.Name)
	s.observeStage(stageValidate, now.Sub(t0))
	if tid := tr.TraceID(); tid != "" {
		w.Header().Set(api.HeaderTraceID, tid)
	}

	key := simcache.Key(spec.Name, opt)
	// Routing decision: with a cluster configured, a key another peer owns
	// is proxied there so the fleet simulates each configuration exactly
	// once. NoForward pins proxied hops to the receiving node, so routing
	// terminates after one hop even if ring views disagree; a down owner
	// degrades to local compute rather than an error.
	proxyTo := ""
	fallback := false
	if s.cluster != nil && !req.NoForward {
		if owner, self := s.cluster.Owner(key); !self {
			if s.cluster.Healthy(owner) {
				proxyTo = owner
			} else {
				fallback = true
			}
		}
	}
	fn := func(ctx context.Context, j *job) error {
		if proxyTo != "" {
			if view, ok := s.proxyRun(ctx, j, proxyTo, req); ok {
				cluster.MProxied.Inc()
				s.nProxied.Add(1)
				j.prog.Begin(obs.PhaseDone, view.TotalRefs)
				j.prog.Add(view.TotalRefs)
				s.mgr.update(j, func(snap *api.JobView) {
					snap.Cache = api.CacheProxied
					snap.Result = view
				})
				return nil
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			fallback = true // owner died mid-proxy: compute here instead
		}
		if s.cluster != nil {
			if fallback {
				cluster.MFallback.Inc()
				s.nFallback.Add(1)
			} else {
				cluster.MLocal.Inc()
				s.nLocal.Add(1)
			}
		}
		opt.Progress = j.prog
		opt.Events = j.events // nil unless the request asked for capture
		rstart := time.Now()
		res, outcome, err := s.cache.DoStaged(ctx, key, func(ctx context.Context) (sim.Result, error) {
			return sim.Run(ctx, sim.Spec{Workload: spec, Opts: opt})
		}, s.stageObserver(j))
		rend := time.Now()
		j.trace.Span(stageResolve, rstart, rend, "outcome", string(outcome))
		s.observeStage(stageResolve, rend.Sub(rstart))
		if err == nil && outcome != simcache.Miss {
			// Cache-hit, disk-hit and joined jobs never drove this job's
			// progress handle (the simulation ran elsewhere, or not at all):
			// record the whole run as instantly complete so progress watchers
			// always observe refs done == expected and a done phase.
			j.prog.Begin(obs.PhaseDone, res.TotalRefs)
			j.prog.Add(res.TotalRefs)
		}
		s.mgr.update(j, func(snap *api.JobView) {
			snap.Cache = string(outcome)
			if err == nil {
				snap.Result = resultView(&res)
			}
		})
		return err
	}
	s.dispatch(w, r, "run", spec.Name, req.Async, sink, tr, t0, fn)
}

// proxyRun forwards a run request to the peer owning its key and returns
// the peer's result view. The forwarded request is pinned (NoForward) so
// routing terminates after one hop, synchronous, and without event
// capture (the trace would live on the peer, not here). Returns ok=false
// on any failure; the caller falls back to local compute.
//
// The hop propagates the request ID and this trace's traceparent, so the
// peer joins the same trace; its spans come back inside the JobView and
// are merged here — one request, one fleet-wide timeline.
func (s *Server) proxyRun(ctx context.Context, j *job, owner string, req api.RunRequest) (*api.ResultView, bool) {
	preq := req
	preq.Async = false
	preq.Events = false
	preq.NoForward = true
	if j.rid != "" {
		ctx = api.WithRequestID(ctx, j.rid)
	}
	if tp := j.trace.Traceparent(); tp != "" {
		ctx = api.WithTraceparent(ctx, tp)
	}
	pstart := time.Now()
	pj, err := s.cluster.Client(owner).Run(ctx, preq)
	pend := time.Now()
	if err != nil {
		j.trace.Span(stageProxy, pstart, pend, "peer", owner, "error", err.Error())
		s.observeStage(stageProxy, pend.Sub(pstart))
		if ctx.Err() == nil {
			s.log.Warn("cluster: proxy failed, computing locally", "owner", owner, "err", err)
		}
		return nil, false
	}
	if pj.Trace != nil {
		j.trace.Merge(spansFromView(pj.Trace))
	}
	j.trace.Span(stageProxy, pstart, pend, "peer", owner, "peer_job", pj.ID)
	s.observeStage(stageProxy, pend.Sub(pstart))
	if pj.Result == nil {
		s.log.Warn("cluster: peer answered without a result, computing locally", "owner", owner, "job", pj.ID)
		return nil, false
	}
	return pj.Result, true
}

// CacheKey resolves a run request against the server's base configuration
// and returns its content-addressed result key — the key the disk tier
// files it under and the cluster ring shards by.
func (s *Server) CacheKey(req api.RunRequest) (string, error) {
	spec, err := workload.Profile(req.Bench)
	if err != nil {
		return "", err
	}
	opt, aerr := s.options(req)
	if aerr != nil {
		return "", aerr
	}
	return simcache.Key(spec.Name, opt), nil
}

// handleEvents serves a job's generation-event capture beside the spans of
// the trace it records on: Chrome trace-event JSON (Perfetto-compatible)
// by default, compact JSONL with ?format=jsonl. The capture is bounded by
// Config.EventsCap and exists only for run jobs that asked for it
// ("events": true). A capture from a cache-hit, disk-hit or proxied run
// carries no per-reference events and no run spans — the simulation
// executed elsewhere (or not at all) — only the service stages timing the
// lookup when tracing is on.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.mgr.lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, unknownJob(id))
		return
	}
	if j.events == nil {
		writeError(w, http.StatusBadRequest, &api.Error{
			Code:    api.CodeBadRequest,
			Message: fmt.Sprintf("serve: job %s has no event capture (submit the run with \"events\": true)", id),
		})
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "chrome":
		w.Header().Set("Content-Type", "application/json")
		_ = j.events.WriteChromeTrace(w) // a gone client is the only failure
	case "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = j.events.WriteJSONL(w)
	default:
		writeError(w, http.StatusBadRequest, &api.Error{
			Code:    api.CodeBadRequest,
			Message: fmt.Sprintf("serve: unknown events format %q (want chrome or jsonl)", format),
		})
	}
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	id := r.PathValue("id")
	exp, err := experiments.ByID(id)
	if err != nil {
		writeError(w, http.StatusNotFound, &api.Error{Code: api.CodeNotFound, Message: err.Error()})
		return
	}
	req := api.ExperimentRequest{}
	if r.ContentLength != 0 && !decodeBody(w, r, &req) {
		return
	}
	for _, b := range req.Benches {
		if _, err := workload.Profile(b); err != nil {
			writeError(w, http.StatusBadRequest, &api.Error{
				Code: api.CodeUnknownBench, Message: err.Error(), Accepted: workload.Names(),
			})
			return
		}
	}
	refs := s.base.MeasureRefs
	if req.Refs > 0 {
		refs = req.Refs
	}
	if aerr := checkSampling(samplingPolicy(req.Sampling), s.base.Audit, refs); aerr != nil {
		writeError(w, http.StatusBadRequest, aerr)
		return
	}
	if aerr := checkEngine(req.Engine); aerr != nil {
		writeError(w, http.StatusBadRequest, aerr)
		return
	}

	tr := s.newTrace(r)
	now := time.Now()
	tr.Span(stageValidate, t0, now, "experiment", id)
	s.observeStage(stageValidate, now.Sub(t0))
	if tid := tr.TraceID(); tid != "" {
		w.Header().Set(api.HeaderTraceID, tid)
	}

	fn := func(ctx context.Context, j *job) error {
		rn := experiments.NewRunner()
		rn.Opts = s.base
		rn.Cache = s.cache
		rn.Ctx = ctx
		rn.Opts.Progress = j.prog
		if req.Warmup > 0 {
			rn.Opts.WarmupRefs = req.Warmup
		}
		if req.Refs > 0 {
			rn.Opts.MeasureRefs = req.Refs
		}
		if req.Seed > 0 {
			rn.Opts.Seed = req.Seed
		}
		if len(req.Benches) > 0 {
			rn.Benches = req.Benches
		}
		rn.Sampling = samplingPolicy(req.Sampling)
		rstart := time.Now()
		tables := exp.Run(rn)
		rend := time.Now()
		j.trace.Span(stageResolve, rstart, rend, "experiment", id)
		s.observeStage(stageResolve, rend.Sub(rstart))
		s.mgr.update(j, func(snap *api.JobView) { snap.Tables = tableViews(tables) })
		return nil
	}
	s.dispatch(w, r, "experiment", id, req.Async, nil, tr, t0, fn)
}

// dispatch submits a job and replies: async jobs get an immediate 202
// snapshot, synchronous jobs block until done (the request context is the
// job's context, so a disconnected client cancels the work). sink, when
// non-nil, becomes the job's event capture (served by /v1/jobs/{id}/events);
// tr, when non-nil, is the request's trace — dispatch closes it out with
// the ingress root span (handler entry to job completion) and, on the
// synchronous path, a respond span around the body write. t0 is handler
// entry.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, kind, target string, async bool, sink *events.Sink, tr *telemetry.Trace, t0 time.Time, fn func(context.Context, *job) error) {
	parent := r.Context()
	if async {
		parent = nil // detach from the request; lives until done or cancelled
	}
	j, err := s.mgr.submit(kind, target, parent, sink, tr, requestIDFrom(r.Context()), fn)
	switch {
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusServiceUnavailable, &api.Error{Code: api.CodeQueueFull, Message: err.Error()})
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, &api.Error{Code: api.CodeDraining, Message: err.Error()})
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, &api.Error{Code: api.CodeInternal, Message: err.Error()})
		return
	}
	if async {
		// The ingress extent of an async request is just intake; the work's
		// own spans land as the job runs and are served by /trace later.
		now := time.Now()
		tr.Root(stageIngress, t0, now, "async", "true")
		s.observeStage(stageIngress, now.Sub(t0))
		writeJSON(w, http.StatusAccepted, s.mgr.snapshot(j))
		return
	}
	<-j.done
	// Root recorded before the snapshot is taken, so a proxied caller
	// receives this node's full extent inside the JobView it merges.
	now := time.Now()
	tr.Root(stageIngress, t0, now)
	s.observeStage(stageIngress, now.Sub(t0))
	snap := s.mgr.snapshot(j)
	rstart := time.Now()
	switch snap.Status {
	case api.StatusDone:
		writeJSON(w, http.StatusOK, snap)
	case api.StatusCanceled:
		writeError(w, http.StatusServiceUnavailable, &api.Error{
			Code:    api.CodeCanceled,
			Message: fmt.Sprintf("job %s canceled: %s", snap.ID, snap.Error),
		})
	default:
		writeError(w, http.StatusInternalServerError, &api.Error{
			Code:    api.CodeInternal,
			Message: fmt.Sprintf("job %s failed: %s", snap.ID, snap.Error),
		})
	}
	rend := time.Now()
	tr.Span(stageRespond, rstart, rend)
	s.observeStage(stageRespond, rend.Sub(rstart))
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.list())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.mgr.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, unknownJob(r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.mgr.cancelJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, unknownJob(r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleCapabilities advertises everything this server can be asked for:
// the shared capability inventory (caps.Local) overlaid with the
// service-state features this instance has switched on.
func (s *Server) handleCapabilities(w http.ResponseWriter, r *http.Request) {
	c := caps.Local()
	c.Events = s.events
	c.Store = s.store != nil
	if s.cluster != nil {
		c.Cluster = &api.ClusterView{Self: s.cluster.Self(), Peers: s.cluster.Peers()}
	}
	writeJSON(w, http.StatusOK, c)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func unknownJob(id string) *api.Error {
	return &api.Error{Code: api.CodeNotFound, Message: fmt.Sprintf("serve: unknown job %q", id)}
}

// maxRequestBody caps the JSON body of a run or experiment request; a
// real one is a few hundred bytes.
const maxRequestBody = 1 << 20

// decodeBody decodes r's JSON body into v, reading at most maxRequestBody
// bytes. On failure it answers the request itself (413 past the cap, 400
// for anything else) and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, &api.Error{
			Code:    api.CodeBadRequest,
			Message: fmt.Sprintf("request body exceeds the %d-byte (1 MiB) limit", maxRequestBody),
		})
		return false
	}
	writeError(w, http.StatusBadRequest, &api.Error{
		Code: api.CodeBadRequest, Message: fmt.Sprintf("decoding request: %v", err),
	})
	return false
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v) // a gone client is the only failure
}

// writeError sends the structured error envelope every non-2xx response
// carries.
func writeError(w http.ResponseWriter, code int, e *api.Error) {
	writeJSON(w, code, api.ErrorEnvelope{Err: e})
}
