// Package sim ties workload, CPU model and memory hierarchy into complete
// simulation runs — the equivalent of one SimpleScalar invocation in the
// paper's methodology. A run warms caches and predictors for WarmupRefs
// references, resets all statistics, then measures MeasureRefs references.
//
// Run accepts a Spec, which names the benchmark (or supplies an explicit
// reference stream) and carries the Options, and drives it on the batched
// struct-of-arrays engine (internal/engine): exact and sampled runs,
// audited runs and event-capturing runs alike. Sampled runs share one
// assembly (runSampled) across every sampling schedule.
//
// The original reference loop (internal/cpu + internal/hier +
// core.Tracker) stays in runReference as the executable specification:
// the engine differential gate, the fuzzers and the event differential
// test hold the engine's results, generation events and spans equal to
// it. Only tests reach it.
package sim

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"

	"timekeeping/internal/core"
	"timekeeping/internal/cpu"
	"timekeeping/internal/decay"
	"timekeeping/internal/events"
	"timekeeping/internal/hier"
	"timekeeping/internal/obs"
	"timekeeping/internal/oracle"
	"timekeeping/internal/prefetch"
	"timekeeping/internal/sample"
	"timekeeping/internal/trace"
	"timekeeping/internal/victim"
	"timekeeping/internal/workload"
)

// ErrSampledAudit rejects the sampling+audit combination: the lockstep
// oracle replays detailed timing semantics for every reference, which
// functional warming deliberately skips, so an audited sampled run would
// diverge by construction. (TK_AUDIT-forced audit silently skips sampled
// runs for the same reason; only an explicit Options.Audit is an error.)
var ErrSampledAudit = errors.New("sim: sampling cannot be combined with audit mode")

// UnknownValueError reports a user-supplied enum value (victim filter,
// prefetcher) that is not one of the accepted names. Callers that present
// errors structurally (the HTTP service's error envelope) read Accepted;
// Error() renders the same list as text.
type UnknownValueError struct {
	Kind     string // "victim filter" or "prefetcher"
	Value    string
	Accepted []string
}

func (e *UnknownValueError) Error() string {
	return fmt.Sprintf("sim: unknown %s %q (accepted: %s)", e.Kind, e.Value, strings.Join(e.Accepted, " | "))
}

// VictimFilter selects the victim-cache admission policy.
type VictimFilter string

// Victim-cache configurations (Figure 13).
const (
	VictimOff      VictimFilter = ""         // no victim cache
	VictimNone     VictimFilter = "none"     // unfiltered
	VictimCollins  VictimFilter = "collins"  // extra-tag conflict filter
	VictimDecay    VictimFilter = "decay"    // timekeeping dead-time filter
	VictimAdaptive VictimFilter = "adaptive" // run-time-tuned dead-time filter (paper's future-work sketch)
	VictimReload   VictimFilter = "reload"   // reload-interval filter (the paper's L2-located alternative)
)

// VictimFilters lists every accepted non-off VictimFilter value.
func VictimFilters() []VictimFilter {
	return []VictimFilter{VictimNone, VictimCollins, VictimDecay, VictimAdaptive, VictimReload}
}

// ParseVictimFilter validates a user-supplied victim-filter name ("" means
// no victim cache). The error names the accepted values.
func ParseVictimFilter(s string) (VictimFilter, error) {
	v := VictimFilter(s)
	if v == VictimOff {
		return v, nil
	}
	for _, k := range VictimFilters() {
		if v == k {
			return v, nil
		}
	}
	return "", &UnknownValueError{Kind: "victim filter", Value: s, Accepted: names(VictimFilters())}
}

// Prefetcher selects the prefetch mechanism.
type Prefetcher string

// Prefetcher configurations (Figure 19, plus the next-line extension).
const (
	PrefetchOff      Prefetcher = ""
	PrefetchTK       Prefetcher = "timekeeping"
	PrefetchDBCP     Prefetcher = "dbcp"
	PrefetchNextLine Prefetcher = "nextline"
)

// Prefetchers lists every accepted non-off Prefetcher value.
func Prefetchers() []Prefetcher {
	return []Prefetcher{PrefetchTK, PrefetchDBCP, PrefetchNextLine}
}

// ParsePrefetcher validates a user-supplied prefetcher name ("" means no
// prefetcher). The error names the accepted values.
func ParsePrefetcher(s string) (Prefetcher, error) {
	p := Prefetcher(s)
	if p == PrefetchOff {
		return p, nil
	}
	for _, k := range Prefetchers() {
		if p == k {
			return p, nil
		}
	}
	return "", &UnknownValueError{Kind: "prefetcher", Value: s, Accepted: names(Prefetchers())}
}

func names[T ~string](vals []T) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = string(v)
	}
	return out
}

// Options configures one run. The zero value plus Default() gives the
// Table 1 baseline.
type Options struct {
	Hier hier.Config
	CPU  cpu.Config

	VictimEntries int
	VictimFilter  VictimFilter
	// VictimDecayThreshold overrides the decay filter's dead-time
	// threshold in cycles (0 = the paper's 1K-cycle 2-bit counter).
	VictimDecayThreshold uint64

	Prefetcher Prefetcher
	// Corr sizes the timekeeping correlation table (zero value = the
	// paper's 8 KB table).
	Corr core.CorrConfig
	// DBCPEntries sizes the DBCP table (0 = the paper's 2 MB).
	DBCPEntries int
	// LiveTimeScale overrides the dead-point factor (0 = the paper's 2).
	LiveTimeScale uint64

	// Track attaches the timekeeping tracker (needed by the metric and
	// predictor experiments; costs some simulation speed).
	Track bool

	// Audit replays every reference through the functional oracle in
	// lockstep (internal/oracle) and fails the run at the first
	// divergence in hit/miss classification, eviction choice, or
	// timekeeping invariants. Roughly doubles simulation cost. The
	// TK_AUDIT environment variable (any non-empty value) forces audit
	// mode on for every exact run in the process. The engine carries the
	// oracle hook itself, so an audited run checks the same code path
	// every other run takes.
	Audit bool

	// DecayIntervals, when non-empty, attaches a cache-decay evaluation
	// (internal/decay) over the whole run; Result.Decay reports one entry
	// per interval.
	DecayIntervals []uint64

	// DropSWPrefetch removes compiler software prefetches from the
	// reference stream (the paper's Section 5 sensitivity experiment).
	DropSWPrefetch bool

	// Sampling, when non-nil, runs the simulation in statistical sampling
	// mode (internal/sample): warm-up and the spans between periodic
	// detailed measurement windows execute through the fast functional
	// path, and Result.Estimate carries per-stat point estimates with 95%
	// confidence intervals. Result.CPU/Hier then pool the detailed
	// windows only, while mechanism tallies (victim, prefetch, decay)
	// cover the whole run and tracker metrics cover detailed windows.
	// The field marshals (omitted when nil), so sampled and exact runs
	// get distinct simcache keys. Incompatible with Audit — see
	// ErrSampledAudit; TK_AUDIT skips sampled runs with a warning.
	// Each segment builds its own engine and mechanisms anew, and takes
	// over a finished segment's growable tables, cleared.
	Sampling *sample.Policy `json:",omitempty"`

	WarmupRefs  uint64
	MeasureRefs uint64
	Seed        uint64

	// Progress, when non-nil, receives live run progress (references done,
	// phase, throughput) on the CPU model's context-check cadence. It does
	// not affect simulation behaviour and is excluded from content hashing
	// (simcache.Key), so runs differing only in Progress share a cache
	// entry. A multi-run job may share one handle across runs; Expected
	// then accumulates.
	Progress *obs.Progress `json:"-"`

	// Events, when non-nil, captures generation-lifecycle events (fills,
	// hits, evictions with dead times, victim/prefetch/decay activity) and
	// run spans into the sink's bounded ring (internal/events) for later
	// export as a Perfetto trace or JSONL. Like Progress it does not
	// affect simulation behaviour and is excluded from content hashing —
	// but note that a simcache hit therefore yields an empty capture (the
	// run never executed). A multi-run job may share one sink. The engine
	// emits at the reference loop's sites, in its order, so a capture
	// costs no change of engine.
	Events *events.Sink `json:"-"`
}

// Default returns the paper's baseline configuration at a simulation scale
// suited to the synthetic workloads (they reach steady state far faster
// than 2B-instruction SPEC runs).
func Default() Options {
	return Options{
		Hier:        hier.DefaultConfig(),
		CPU:         cpu.DefaultConfig(),
		WarmupRefs:  150_000,
		MeasureRefs: 600_000,
		Seed:        1,
	}
}

// Spec describes one complete run: what to simulate (a workload profile
// or an explicit reference stream) and how (Options).
type Spec struct {
	// Workload names the benchmark profile; it supplies the reference
	// stream (seeded by Opts.Seed) and the result label. Ignored when
	// Stream is non-nil.
	Workload workload.Spec

	// Stream, when non-nil, replays an explicit reference stream (e.g. a
	// saved trace file) instead of generating one from Workload. The phase
	// and segmented sampling schedules take copies of the stream
	// (trace.Copy), so they reject one that cannot be copied, such as a
	// trace.Reader; load a trace into a trace.SliceStream for them.
	Stream trace.Stream

	// Name labels the result; it defaults to Workload.Name when a
	// workload supplies the stream.
	Name string

	Opts Options
}

// Result is everything a run produced over the measurement window.
type Result struct {
	Bench string
	CPU   cpu.Result
	Hier  hier.Stats

	// TotalRefs counts every reference the run processed, including the
	// warm-up window (CPU.Refs covers the measured window only).
	TotalRefs uint64

	// Estimate carries a sampled run's statistical summary (nil for exact
	// runs): per-stat point estimates with 95% confidence intervals plus
	// the warm/detailed reference split.
	Estimate *sample.Estimate `json:",omitempty"`

	Victim  *victim.Stats
	Tracker *core.Metrics

	// Decay holds the cache-decay evaluation (nil unless DecayIntervals
	// was set); it covers the whole run, warm-up included.
	Decay []decay.Result

	// Audit summarises the lockstep verification (nil unless audited).
	Audit *oracle.Summary

	// Prefetch outputs (nil unless a prefetcher was attached).
	PFTimeliness *prefetch.Timeliness
	PFAddrAcc    float64 // address accuracy over finished predictions
	PFCoverage   float64 // predictor hit rate
	PFIssued     uint64
}

// IPC returns the measured-window IPC.
func (r Result) IPC() float64 { return r.CPU.IPC }

// VictimFillPerCycle returns victim-cache insertions per cycle (the fill
// traffic metric of Figure 13).
func (r Result) VictimFillPerCycle() float64 {
	if r.Victim == nil || r.CPU.Cycles == 0 {
		return 0
	}
	return float64(r.Victim.Admitted) / float64(r.CPU.Cycles)
}

// Run simulates one Spec on the engine. When ctx is cancelled the
// simulation stops at reference-loop granularity and returns ctx's error.
func Run(ctx context.Context, s Spec) (Result, error) {
	return run(ctx, s, runFast)
}

// runFunc simulates a validated run: stream under opt, labelled name.
// Production runs take runFast; runReference is the tests' oracle.
type runFunc func(ctx context.Context, name string, stream trace.Stream, opt Options) (Result, error)

// run validates s and hands it to simulate.
func run(ctx context.Context, s Spec, simulate runFunc) (Result, error) {
	opt := s.Opts
	name := s.Name
	stream := s.Stream
	if stream == nil {
		if err := s.Workload.Validate(); err != nil {
			return Result{}, err
		}
		if name == "" {
			name = s.Workload.Name
		}
		stream = s.Workload.Stream(opt.Seed)
	}
	if err := opt.Hier.Validate(); err != nil {
		return Result{}, err
	}
	if err := opt.CPU.Validate(); err != nil {
		return Result{}, err
	}
	if opt.MeasureRefs == 0 {
		return Result{}, fmt.Errorf("sim: MeasureRefs must be > 0")
	}
	if opt.Sampling != nil {
		if err := opt.Sampling.Validate(); err != nil {
			return Result{}, err
		}
		if opt.Audit {
			return Result{}, ErrSampledAudit
		}
	}
	// Mechanisms are checked here, not where they are built: the
	// segmented schedule builds nothing before its first segment.
	if _, err := ParseVictimFilter(string(opt.VictimFilter)); err != nil {
		return Result{}, fmt.Errorf("sim: unknown victim filter %q", opt.VictimFilter)
	}
	if _, err := ParsePrefetcher(string(opt.Prefetcher)); err != nil {
		return Result{}, fmt.Errorf("sim: unknown prefetcher %q", opt.Prefetcher)
	}
	return simulate(ctx, name, stream, opt)
}

// newVictimCache builds the configured victim cache (nil when off);
// frames is the L1 frame count (Collins filter sizing). run has checked
// the filter.
func newVictimCache(opt Options, frames int) *victim.Cache {
	if opt.VictimFilter == VictimOff {
		return nil
	}
	entries := opt.VictimEntries
	if entries == 0 {
		entries = 32
	}
	var filter victim.Filter
	switch opt.VictimFilter {
	case VictimNone:
		filter = victim.NoFilter{}
	case VictimCollins:
		filter = victim.NewCollinsFilter(frames)
	case VictimDecay:
		if opt.VictimDecayThreshold > 0 {
			filter = victim.NewDecayFilterThreshold(opt.VictimDecayThreshold)
		} else {
			filter = victim.NewDecayFilter()
		}
	case VictimAdaptive:
		filter = victim.NewAdaptiveFilter(entries, 0)
	case VictimReload:
		filter = victim.NewReloadFilter(0)
	default:
		panic(fmt.Sprintf("sim: unknown victim filter %q", opt.VictimFilter))
	}
	return victim.New(entries, filter)
}

// prefetchers holds whichever prefetch mechanism a run attached (at most
// one field is non-nil).
type prefetchers struct {
	tk   *prefetch.Timekeeping
	dbcp *prefetch.DBCP
	nl   *prefetch.NextLine
}

// newPrefetchers builds the configured prefetcher against l1 (which is
// the reference cache.Cache or the engine's SoA mirror). run has checked
// the prefetcher.
func newPrefetchers(opt Options, l1 prefetch.L1View) prefetchers {
	var p prefetchers
	switch opt.Prefetcher {
	case PrefetchOff:
	case PrefetchTK:
		pcfg := prefetch.DefaultConfig()
		if opt.LiveTimeScale > 0 {
			pcfg.LiveTimeScale = opt.LiveTimeScale
		}
		ccfg := opt.Corr
		if ccfg == (core.CorrConfig{}) {
			ccfg = core.DefaultCorrConfig()
		}
		p.tk = prefetch.NewTimekeeping(pcfg, core.NewCorrTable(ccfg), l1)
	case PrefetchDBCP:
		entries := opt.DBCPEntries
		if entries == 0 {
			entries = prefetch.DBCPEntries
		}
		p.dbcp = prefetch.NewDBCP(prefetch.DefaultConfig(), entries, l1)
	case PrefetchNextLine:
		p.nl = prefetch.NewNextLine(prefetch.DefaultConfig(), l1)
	default:
		panic(fmt.Sprintf("sim: unknown prefetcher %q", opt.Prefetcher))
	}
	return p
}

// resetStats clears the attached prefetcher's measurement counters at
// the warm-up boundary.
func (p prefetchers) resetStats() {
	switch {
	case p.tk != nil:
		p.tk.ResetStats()
	case p.dbcp != nil:
		p.dbcp.ResetStats()
	case p.nl != nil:
		p.nl.ResetStats()
	}
}

// report copies the attached prefetcher's outputs into res.
func (p prefetchers) report(res *Result) {
	switch {
	case p.tk != nil:
		tl := p.tk.Timeliness()
		res.PFTimeliness = &tl
		res.PFAddrAcc = p.tk.AddressTally().Accuracy()
		res.PFCoverage = p.tk.Coverage()
		res.PFIssued = p.tk.Issued()
	case p.dbcp != nil:
		tl := p.dbcp.Timeliness()
		res.PFTimeliness = &tl
		res.PFIssued = p.dbcp.Issued()
	case p.nl != nil:
		tl := p.nl.Timeliness()
		res.PFTimeliness = &tl
		res.PFIssued = p.nl.Issued()
	}
}

// tracker is what a run needs from either engine's timekeeping tracker.
type tracker interface {
	sample.Warmable
	Metrics() *core.Metrics
	Reset()
}

// machine is what a rig drives: the sampling schedules' Machine plus the
// statistics reset at an exact run's warm-up boundary.
type machine interface {
	sample.Machine
	ResetStats()
}

// rig is one assembled simulation instance, engine or reference: the
// machine that steps references and the mechanisms attached to it.
type rig struct {
	m       machine
	vc      *victim.Cache
	pfs     prefetchers
	tracker tracker
	dec     *decay.Sim
}

// resetStats clears the machine's and the mechanisms' measurement
// counters at the warm-up boundary of an exact run, keeping all state.
func (r *rig) resetStats() {
	r.m.ResetStats()
	if r.vc != nil {
		r.vc.ResetStats()
	}
	r.pfs.resetStats()
	if r.tracker != nil {
		r.tracker.Reset()
	}
}

// outputs returns the mechanisms' results.
func (r *rig) outputs() outputs {
	o := outputs{dec: r.dec, pfs: r.pfs}
	if r.vc != nil {
		s := r.vc.Stats()
		o.victim = &s
	}
	if r.tracker != nil {
		o.tracker = r.tracker.Metrics()
	}
	return o
}

// outputs are what a run reports beyond its CPU and hierarchy counters:
// the mechanisms' tallies. The decay evaluation and the prefetcher carry
// their tallies themselves, so they stand in for them.
type outputs struct {
	victim  *victim.Stats
	tracker *core.Metrics
	dec     *decay.Sim
	pfs     prefetchers
}

// report copies the outputs into res.
func (o outputs) report(res *Result) {
	res.Victim = o.victim
	res.Tracker = o.tracker
	if o.dec != nil {
		res.Decay = o.dec.Results()
	}
	o.pfs.report(res)
}

// assembleReference builds the reference hierarchy and core with opt's
// mechanisms attached in the reference attachment order, and returns the
// rig driving them. ev, when non-nil, receives the hierarchy's and the
// mechanisms' events. A sampled run builds its own machine or every
// segment's through it.
func assembleReference(opt Options, ev *events.Sink) *rig {
	h := hier.New(opt.Hier)
	h.SetEvents(ev)
	r := &rig{m: sample.Reference{CPU: cpu.New(opt.CPU, h), Hier: h}}
	if vc := newVictimCache(opt, h.L1().NumFrames()); vc != nil {
		if ev != nil {
			vc.SetEvents(ev)
		}
		h.AttachVictim(vc)
		r.vc = vc
	}

	pfs := newPrefetchers(opt, h.L1())
	switch {
	case pfs.tk != nil:
		h.AttachPrefetcher(pfs.tk)
	case pfs.dbcp != nil:
		h.AttachPrefetcher(pfs.dbcp)
	case pfs.nl != nil:
		h.AttachPrefetcher(pfs.nl)
	}
	r.pfs = pfs

	if opt.Track {
		tr := core.NewTracker(h.L1().NumFrames())
		h.AddObserver(tr)
		r.tracker = tr
	}
	if len(opt.DecayIntervals) > 0 {
		dec := decay.New(h.L1().NumFrames(), opt.DecayIntervals)
		if ev != nil {
			dec.SetEvents(ev)
		}
		h.AddObserver(dec)
		r.dec = dec
	}
	return r
}

// runReference drives the original cpu.Model + hier.Hierarchy loop, the
// executable specification the engine is tested against. It captures
// events at the hierarchy's own emit sites, but never audits, and its
// core reports no progress: those hooks live in the engine alone.
func runReference(ctx context.Context, name string, stream trace.Stream, opt Options) (Result, error) {
	if opt.DropSWPrefetch {
		stream = &trace.DropSWPrefetch{S: stream}
	}
	if opt.Sampling != nil {
		build := func(ev *events.Sink) *rig { return assembleReference(opt, ev) }
		return runSampled(ctx, name, build, stream, opt)
	}
	return runExact(ctx, name, assembleReference(opt, opt.Events), stream, opt, nil)
}

// runExact drives an exact run on an assembled rig: warm-up, the
// statistics reset at its boundary, then the measurement window. aud,
// when non-nil, is the lockstep auditor attached to the rig's machine.
func runExact(ctx context.Context, name string, r *rig, stream trace.Stream, opt Options, aud *oracle.Auditor) (Result, error) {
	m := r.m
	// Progress: one Begin per run (Expected accumulates for multi-run
	// jobs); the phase flips to measure at the warm-up boundary.
	// PhaseDone is the job owner's call — a sweep runs many simulations
	// under one handle.
	opt.Progress.Begin(obs.PhaseWarmup, opt.WarmupRefs+opt.MeasureRefs)
	runName := "run"
	if aud != nil {
		runName = "audited-run"
	}
	runSpan := opt.Events.BeginSpan(runName, m.Now())
	warmSpan := opt.Events.BeginSpan("warmup", m.Now())
	warm, err := runPhase(ctx, m, stream, opt.WarmupRefs)
	opt.Events.EndSpan(warmSpan, m.Now())
	if err != nil {
		return Result{}, err
	}

	// Measurement window: reset statistics, keep all state.
	r.resetStats()
	if aud != nil {
		aud.ResetStats()
	}

	opt.Progress.SetPhase(obs.PhaseMeasure)
	measureSpan := opt.Events.BeginSpan("measure", m.Now())
	final, err := runPhase(ctx, m, stream, opt.MeasureRefs)
	opt.Events.EndSpan(measureSpan, m.Now())
	opt.Events.EndSpan(runSpan, m.Now())
	if err != nil {
		return Result{}, err
	}

	res := Result{
		Bench:     name,
		CPU:       final.Minus(warm),
		Hier:      m.Stats(),
		TotalRefs: final.Refs,
	}
	r.outputs().report(&res)
	if aud != nil {
		if err := aud.Finish(res.Tracker, res.Decay); err != nil {
			return Result{}, err
		}
		res.Audit = aud.Summary()
	}
	return res, nil
}

// runSampled drives a sampled run, engine or reference; sample owns the
// warm/measure alternation and the progress lifecycle, and tracker
// metrics accumulate only inside detailed windows. build assembles a rig
// whose machine and mechanisms send their events to ev. The classic and
// phase schedules step one rig, built with the run's sink. The segmented
// schedule steps only its segments' rigs, built with no sink, so the run
// builds none of its own.
func runSampled(ctx context.Context, name string, build func(ev *events.Sink) *rig, stream trace.Stream, opt Options) (Result, error) {
	scfg := sample.Config{
		Stream:      stream,
		Policy:      *opt.Sampling,
		WarmupRefs:  opt.WarmupRefs,
		MeasureRefs: opt.MeasureRefs,
		Progress:    opt.Progress,
		Events:      opt.Events,
	}
	var (
		r    *rig
		segs *segmentState
	)
	if opt.Sampling.SegmentWindows > 0 {
		// Bind the sink to the L1 geometry, as building a machine with it
		// would.
		opt.Events.Bind(opt.Hier.L1.BlockBytes, opt.Hier.L1.Sets(), opt.Hier.L1.Ways)
		segs = &segmentState{
			fork: func() *rig { return build(nil) },
			byID: make(map[int]outputs),
		}
		scfg.NewInstance = segs.newInstance
	} else {
		r = build(opt.Events)
		scfg.Machine = r.m
		if r.tracker != nil {
			scfg.Warmables = []sample.Warmable{r.tracker}
		}
	}
	out, err := sample.Run(ctx, scfg)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Bench:     name,
		CPU:       out.CPU,
		Hier:      out.Hier,
		TotalRefs: out.TotalRefs,
		Estimate:  &out.Estimate,
	}
	if segs != nil {
		// Segment-parallel run: pool each segment's outputs in fixed
		// segment order.
		segs.report(&res)
	} else {
		r.outputs().report(&res)
	}
	return res, nil
}

// auditForced reports whether the TK_AUDIT environment variable turns
// audit mode on for every run in the process (the CI lockstep leg).
func auditForced() bool { return os.Getenv("TK_AUDIT") != "" }

// runPhase drives one simulation window, converting an oracle divergence
// panic into an ordinary error: the auditor aborts the run at the exact
// reference that diverged, and the engine has no error path mid-access.
func runPhase(ctx context.Context, m sample.Machine, stream trace.Stream, n uint64) (res cpu.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			if d, ok := r.(*oracle.Divergence); ok {
				res, err = m.Snapshot(), d
				return
			}
			panic(r)
		}
	}()
	return m.Run(ctx, stream, n)
}

// MustRun is Run for known-good workload+options; it panics on error.
func MustRun(spec workload.Spec, opt Options) Result {
	r, err := Run(context.Background(), Spec{Workload: spec, Opts: opt})
	if err != nil {
		panic(err)
	}
	return r
}

// Improvement returns the percent IPC improvement of r over base.
func Improvement(r, base Result) float64 {
	if base.CPU.IPC == 0 {
		return 0
	}
	return 100 * (r.CPU.IPC - base.CPU.IPC) / base.CPU.IPC
}
