// Package api defines the tkserve service's wire types — requests,
// job/result views, progress events and the structured error envelope —
// plus a typed HTTP client (see client.go). It is the service's public
// surface: internal/serve implements these types over HTTP, and every
// consumer (the CLI commands, tests, external tooling) talks through this
// package instead of hand-rolling requests and decoding.
//
// The views are deliberately plain data: no methods that recompute, no
// references into the simulator's internal packages, so the JSON schema is
// exactly what the structs say.
package api

import "time"

// Status is a job's lifecycle state.
type Status string

// Job lifecycle: queued -> running -> one of done / failed / canceled.
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Cache outcomes: how a run job's result was satisfied.
const (
	CacheHit     = "hit"     // answered from the in-memory result store
	CacheMiss    = "miss"    // this job ran the simulation
	CacheJoined  = "joined"  // attached to another caller's in-flight run
	CacheDisk    = "disk"    // answered from the durable disk tier
	CacheProxied = "proxied" // answered by the key's owning cluster peer
)

// SamplingPolicy configures statistical sampling for a run: detailed
// measurement windows of DetailedRefs references separated by WarmRefs of
// fast functional warming. See the server's documentation for knob
// semantics; zero-valued optional fields take the simulator's defaults.
type SamplingPolicy struct {
	DetailedRefs uint64 `json:"detailed_refs"`
	WarmRefs     uint64 `json:"warm_refs"`
	// DetailedWarmRefs is the detailed-mode warm prefix excluded from
	// each window's sample.
	DetailedWarmRefs uint64 `json:"detailed_warm_refs,omitempty"`
	// NominalCPI is the warming clock rate in cycles per instruction.
	NominalCPI float64 `json:"nominal_cpi,omitempty"`
	// TargetRelCI, when > 0, samples until the IPC estimate's relative
	// 95% CI half-width is at most this value (e.g. 0.02 = ±2%).
	TargetRelCI float64 `json:"target_rel_ci,omitempty"`
	MinWindows  int     `json:"min_windows,omitempty"`
	MaxWindows  int     `json:"max_windows,omitempty"`
	// SegmentWindows, when > 0, selects the segment-parallel schedule:
	// windows per independently warmed segment. Changes results (and the
	// result-cache key) versus the classic single-timeline schedule.
	SegmentWindows int `json:"segment_windows,omitempty"`
	// Parallelism bounds the worker pool executing segments (0 or 1 =
	// sequential; > 1 requires SegmentWindows > 0; max 64). Results are
	// identical at every level, so it does not enter the cache key.
	Parallelism int `json:"parallelism,omitempty"`

	// Schedule selects the window-placement schedule: "" (periodic) or
	// "phase" — profile the trace into interval signatures, cluster them,
	// and measure cluster representatives weighted by interval mass.
	// Changes results (and the result-cache key).
	Schedule string `json:"schedule,omitempty"`
	// PhaseIntervals is the profiling interval count for the phase
	// schedule (0 = 64; accepted range [2, 65536]).
	PhaseIntervals int `json:"phase_intervals,omitempty"`
	// PhaseK fixes the phase cluster count (0 = BIC model selection;
	// accepted range [0, 64], at most PhaseIntervals).
	PhaseK int `json:"phase_k,omitempty"`
	// PhaseSeed seeds the signature projection and clustering (0 = 1).
	PhaseSeed uint64 `json:"phase_seed,omitempty"`
}

// RunRequest is the body of POST /v1/run. Zero-valued fields inherit the
// server's base options.
type RunRequest struct {
	Bench string `json:"bench"`
	// Engine selects the execution engine: "auto" (or empty), "fast", or
	// "reference". The engines are proven result-identical, so the choice
	// does not change the result-cache key; "fast" is rejected
	// (bad_request) when the request needs instrumentation only the
	// reference loop carries (sampling, event capture, audit).
	Engine         string `json:"engine,omitempty"`
	Victim         string `json:"victim,omitempty"`
	VictimEntries  int    `json:"victim_entries,omitempty"`
	Prefetch       string `json:"prefetch,omitempty"`
	Perfect        bool   `json:"perfect,omitempty"`
	Track          bool   `json:"track,omitempty"`
	DropSWPrefetch bool   `json:"drop_sw_prefetch,omitempty"`
	Warmup         uint64 `json:"warmup,omitempty"`
	Refs           uint64 `json:"refs,omitempty"`
	Seed           uint64 `json:"seed,omitempty"`
	// Sampling, when non-nil, runs the simulation in statistical sampling
	// mode; the result then carries an Estimate with confidence
	// intervals. Rejected (bad_request) when combined with audit mode or
	// when the policy is invalid.
	Sampling *SamplingPolicy `json:"sampling,omitempty"`
	// Events asks the server to capture the run's generation-event trace,
	// downloadable afterwards via Client.JobEvents (GET
	// /v1/jobs/{id}/events). Rejected (bad_request) unless the server was
	// started with event capture enabled; the capture is bounded by the
	// server's configured ring capacity, and a run satisfied from the
	// result cache yields an empty capture (the simulation never executed
	// in this job).
	Events bool `json:"events,omitempty"`
	// Async detaches the job from the request: the response is an
	// immediate 202 with the job ID, polled via GET /v1/jobs/{id} or
	// streamed via GET /v1/jobs/{id}/progress. Synchronous requests block
	// until the job finishes, and a client disconnect cancels the
	// simulation.
	Async bool `json:"async,omitempty"`
	// NoForward pins the request to the receiving node: a clustered
	// server resolves it locally instead of proxying to the key's owner.
	// Set automatically on proxied hops so a request crosses the cluster
	// at most once; operators can set it to probe a specific node.
	NoForward bool `json:"no_forward,omitempty"`
}

// ExperimentRequest is the body of POST /v1/experiments/{id}. All fields
// are optional.
type ExperimentRequest struct {
	Benches []string `json:"benches,omitempty"`
	Warmup  uint64   `json:"warmup,omitempty"`
	Refs    uint64   `json:"refs,omitempty"`
	Seed    uint64   `json:"seed,omitempty"`
	// Sampling runs the whole sweep in statistical sampling mode (see
	// RunRequest.Sampling).
	Sampling *SamplingPolicy `json:"sampling,omitempty"`
	// Engine selects the execution engine for every run in the sweep
	// (see RunRequest.Engine).
	Engine string `json:"engine,omitempty"`
	Async  bool   `json:"async,omitempty"`
}

// ExperimentInfo names one regenerable paper experiment or ablation.
type ExperimentInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

// ClusterView describes the serving fleet, from the answering node's
// perspective.
type ClusterView struct {
	Self  string   `json:"self"`
	Peers []string `json:"peers"`
}

// StageLatency is one request stage's latency summary inside a
// LoadReport: observation count plus estimated p50/p99 in seconds.
type StageLatency struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_seconds"`
	P99   float64 `json:"p99_seconds"`
}

// LoadReport is the body of GET /v1/load: one node's instantaneous
// load/saturation signals. Peers poll it on the cluster probe loop (a 200
// doubles as the liveness signal), and it is the input the future
// admission-and-placement layer keys off.
type LoadReport struct {
	// Node is the reporting node's identity (its cluster peer URL when
	// clustered).
	Node string `json:"node"`

	// Queue and worker occupancy.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	Running       int `json:"running"`
	Workers       int `json:"workers"`
	// InflightRuns counts simulations currently executing in the result
	// cache (deduplicated across waiting callers).
	InflightRuns int `json:"inflight_runs"`

	// Throughput.
	UptimeSeconds float64 `json:"uptime_seconds"`
	RefsTotal     uint64  `json:"refs_total"`
	RefsPerSec    float64 `json:"refs_per_sec"`

	// Cache effectiveness, each in [0, 1] over this node's lifetime
	// lookups: memory hits, disk-tier hits, and the fraction of routed
	// run requests answered by proxying to the owning peer.
	MemHitRatio  float64 `json:"mem_hit_ratio"`
	DiskHitRatio float64 `json:"disk_hit_ratio"`
	ProxiedRatio float64 `json:"proxied_ratio"`

	// Durable tier footprint (zero when no store is attached).
	StoreEntries int   `json:"store_entries,omitempty"`
	StoreBytes   int64 `json:"store_bytes,omitempty"`

	// Saturation is the node's own 0–1 load score (see
	// cluster.Saturation).
	Saturation float64 `json:"saturation"`

	// Stages summarises per-stage request latency (tkserve_stage_seconds)
	// for stages that have observations.
	Stages map[string]StageLatency `json:"stages,omitempty"`
}

// PeerStatus is one peer's row in the aggregated fleet view.
type PeerStatus struct {
	URL  string `json:"url"`
	Self bool   `json:"self,omitempty"`
	Up   bool   `json:"up"`
	// Saturation is the cluster-derived 0–1 load score: the peer's own
	// report for live peers, 1 for peers believed down.
	Saturation float64 `json:"saturation"`
	// OwnershipShare is the fraction of the key ring this peer owns.
	OwnershipShare float64 `json:"ownership_share"`
	// Load is the peer's last polled report (absent until first poll, and
	// for down peers whose report has gone stale).
	Load *LoadReport `json:"load,omitempty"`
}

// ClusterStatus is the body of GET /v1/cluster/status: the answering
// node's aggregated fleet view — ring ownership, probed health, and
// per-peer saturation.
type ClusterStatus struct {
	Self  string       `json:"self"`
	Peers []PeerStatus `json:"peers"`
}

// SpanView is one completed span of a request trace.
type SpanView struct {
	SpanID   string            `json:"span_id"`
	ParentID string            `json:"parent_id,omitempty"`
	Name     string            `json:"name"`
	Node     string            `json:"node"`
	StartUS  int64             `json:"start_us"`
	DurUS    int64             `json:"dur_us"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// TraceView is a request's distributed trace: every span recorded for the
// job so far, across every node that touched it. Proxied requests carry
// the owning peer's spans merged under the same trace ID.
type TraceView struct {
	TraceID string     `json:"trace_id"`
	Spans   []SpanView `json:"spans"`
}

// BuildInfo identifies the running binary (from debug.ReadBuildInfo).
type BuildInfo struct {
	// Version is the main module's version ("(devel)" for source builds).
	Version string `json:"version,omitempty"`
	// Revision is the VCS commit the binary was built from, when stamped.
	Revision string `json:"revision,omitempty"`
	// Modified reports uncommitted changes at build time.
	Modified bool `json:"modified,omitempty"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
}

// Capabilities is the body of GET /v1/capabilities: the single source of
// truth for what this server (or, via caps.Local, this binary) can be
// asked for — accepted enum values for run requests, the benchmark suite,
// the experiment catalogue, and which optional service features are
// switched on.
type Capabilities struct {
	// Engines lists accepted RunRequest.Engine values ("auto" first).
	Engines []string `json:"engines"`
	// Benches is the workload suite (accepted RunRequest.Bench values).
	Benches []string `json:"benches"`
	// VictimFilters and Prefetchers list the accepted mechanism names
	// (the empty string — mechanism off — is always accepted and not
	// listed).
	VictimFilters []string `json:"victim_filters"`
	Prefetchers   []string `json:"prefetchers"`
	// Experiments lists every regenerable figure/table/ablation.
	Experiments []ExperimentInfo `json:"experiments"`
	// Sampling reports whether RunRequest.Sampling is honoured.
	Sampling bool `json:"sampling"`
	// Events reports whether the server captures generation-event traces
	// (Config.Events).
	Events bool `json:"events"`
	// Store reports whether a durable disk tier backs the result cache.
	Store bool `json:"store"`
	// Cluster is present when the server shards work across a peer
	// fleet.
	Cluster *ClusterView `json:"cluster,omitempty"`
	// Build identifies the binary answering (version, VCS revision, Go
	// toolchain).
	Build *BuildInfo `json:"build,omitempty"`
}

// JobView is the externally visible snapshot of one queued simulation or
// experiment.
type JobView struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`   // "run" or "experiment"
	Target string `json:"target"` // benchmark or experiment ID
	Status Status `json:"status"`

	Cache string `json:"cache,omitempty"` // hit | miss | joined (run jobs)

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	WallMS      float64    `json:"wall_ms,omitempty"` // running -> finished

	Progress *Progress `json:"progress,omitempty"`

	Result *ResultView `json:"result,omitempty"` // run jobs
	Tables []Table     `json:"tables,omitempty"` // experiment jobs
	Error  string      `json:"error,omitempty"`

	// TraceID is the request's distributed trace identifier (also sent as
	// the X-Trace-Id response header). Trace is the span timeline recorded
	// so far (this node's stages, plus the owning peer's merged in for
	// proxied runs); it is embedded only when the request joined an
	// inbound trace through a valid traceparent header, as every proxy
	// hop does, so that caller can merge the spans into its own trace.
	// Both are absent when the server runs with tracing disabled. Any
	// client reads the timeline from GET /v1/jobs/{id}/trace, as JSONL or
	// Chrome trace-event JSON.
	TraceID string     `json:"trace_id,omitempty"`
	Trace   *TraceView `json:"trace,omitempty"`
}

// Progress is a point-in-time view of a job's simulation progress.
// RefsExpected grows as a multi-run job (an experiment sweep) discovers
// its simulations; RefsDone only ever increases.
type Progress struct {
	Phase        string  `json:"phase"` // idle | warmup | measure | done
	RefsDone     uint64  `json:"refs_done"`
	RefsExpected uint64  `json:"refs_expected"`
	RefsPerSec   float64 `json:"refs_per_sec"`
}

// ProgressEvent is one frame of the GET /v1/jobs/{id}/progress SSE stream.
// The stream ends with a Terminal event carrying the job's final status.
type ProgressEvent struct {
	JobID  string `json:"job_id"`
	Status Status `json:"status"`
	Progress
	ElapsedMS float64 `json:"elapsed_ms"`
	Terminal  bool    `json:"terminal"`
}

// LevelStats is one cache level's counters over the measurement window.
type LevelStats struct {
	Accesses   uint64  `json:"accesses"`
	Hits       uint64  `json:"hits"`
	Misses     uint64  `json:"misses"`
	Writebacks uint64  `json:"writebacks"`
	MissRate   float64 `json:"miss_rate"`
}

// VictimView summarises the victim cache's activity.
type VictimView struct {
	Offered      uint64  `json:"offered"`
	Admitted     uint64  `json:"admitted"`
	Lookups      uint64  `json:"lookups"`
	Hits         uint64  `json:"hits"`
	FillPerCycle float64 `json:"fill_per_cycle"`
}

// PrefetchView summarises the prefetcher's activity.
type PrefetchView struct {
	Issued       uint64  `json:"issued"`
	Useful       uint64  `json:"useful"`
	AddrAccuracy float64 `json:"addr_accuracy"`
	Coverage     float64 `json:"coverage"`
}

// TrackerView summarises the timekeeping tracker's generational metrics.
type TrackerView struct {
	Generations      uint64  `json:"generations"`
	MeanLiveCycles   float64 `json:"mean_live_cycles"`
	MeanDeadCycles   float64 `json:"mean_dead_cycles"`
	ZeroLiveAccuracy float64 `json:"zero_live_accuracy"`
	ZeroLiveCoverage float64 `json:"zero_live_coverage"`
}

// StatEstimate is one statistic's sampled point estimate with its 95%
// confidence interval over detailed measurement windows.
type StatEstimate struct {
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"std_dev"`
	CILow  float64 `json:"ci_low"`
	CIHigh float64 `json:"ci_high"`
	N      int     `json:"n"`
}

// PhaseView summarises a phase-scheduled run: the profiling geometry, the
// clustering, and the representative-window budget.
type PhaseView struct {
	Intervals    int    `json:"intervals"`
	IntervalRefs uint64 `json:"interval_refs"`
	ProfiledRefs uint64 `json:"profiled_refs"`
	K            int    `json:"k"`
	Masses       []int  `json:"masses"`
	RepWindows   int    `json:"rep_windows"`
}

// EstimateView summarises a sampled run: how the references split between
// the functional and detailed paths, and the per-stat estimates.
type EstimateView struct {
	Windows      int    `json:"windows"`
	DetailedRefs uint64 `json:"detailed_refs"`
	WarmRefs     uint64 `json:"warm_refs"`
	TargetMet    bool   `json:"target_met,omitempty"`
	// Phase is present only for phase-scheduled runs.
	Phase *PhaseView `json:"phase,omitempty"`

	IPC        StatEstimate `json:"ipc"`
	L1MissRate StatEstimate `json:"l1_miss_rate"`
	L2MissRate StatEstimate `json:"l2_miss_rate"`
}

// ResultView is everything one run produced over its measurement window.
type ResultView struct {
	Bench string `json:"bench"`
	// Engine records which execution engine produced the result; empty
	// when the result was answered from the durable store (stored
	// results are engine-neutral — the engines are proven identical).
	Engine string  `json:"engine,omitempty"`
	IPC    float64 `json:"ipc"`

	Insts  uint64 `json:"insts"`
	Cycles uint64 `json:"cycles"`
	Refs   uint64 `json:"refs"`
	Loads  uint64 `json:"loads"`
	Stores uint64 `json:"stores"`
	// TotalRefs counts every reference processed, warm-up included.
	TotalRefs uint64 `json:"total_refs"`

	L1 LevelStats `json:"l1"`
	L2 LevelStats `json:"l2"`

	ColdMisses     uint64 `json:"cold_misses"`
	ConflictMisses uint64 `json:"conflict_misses"`
	CapacityMisses uint64 `json:"capacity_misses"`
	VictimHits     uint64 `json:"victim_hits"`

	PrefetchesIssued uint64 `json:"prefetches_issued,omitempty"`
	PrefetchesUseful uint64 `json:"prefetches_useful,omitempty"`

	Victim   *VictimView   `json:"victim,omitempty"`
	Prefetch *PrefetchView `json:"prefetch,omitempty"`
	Tracker  *TrackerView  `json:"tracker,omitempty"`

	// Estimate is present for sampled runs only: the statistical summary
	// with confidence intervals. For sampled runs the flat counters above
	// pool the detailed measurement windows.
	Estimate *EstimateView `json:"estimate,omitempty"`
}

// Table is one rendered experiment table (a paper figure or table).
type Table struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}
