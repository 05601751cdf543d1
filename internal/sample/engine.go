package sample

import (
	"context"
	"errors"
	"fmt"

	"timekeeping/internal/cpu"
	"timekeeping/internal/events"
	"timekeeping/internal/hier"
	"timekeeping/internal/obs"
	"timekeeping/internal/telemetry"
	"timekeeping/internal/trace"
)

// ErrNoWindows is returned when the stream ends before a single detailed
// window completes: there is nothing to estimate from.
var ErrNoWindows = errors.New("sample: stream ended before the first detailed window")

// Warmable is state whose statistics recording can be suspended during
// functional warming while the underlying hardware state keeps advancing
// (core.FastTracker, the tracker production runs attach, implements it).
type Warmable interface {
	SetRecording(on bool)
}

// Machine is the assembled simulation a schedule drives: a core bound to
// its memory hierarchy, stepping references through either the detailed
// timing model or functional warming. The batched engine
// (*engine.Engine) implements it; Reference adapts the reference
// cpu.Model + hier.Hierarchy pair.
type Machine interface {
	// Run steps up to n references through the detailed model and
	// returns the cumulative snapshot.
	Run(ctx context.Context, s trace.Stream, n uint64) (cpu.Result, error)
	// RunFunctional steps up to n references through functional warming,
	// advancing the clock at cpi cycles per instruction (0 = 1.0).
	RunFunctional(ctx context.Context, s trace.Stream, n uint64, cpi float64) (cpu.Result, error)
	// Snapshot returns the cumulative execution summary.
	Snapshot() cpu.Result
	// Now returns the current retirement cycle.
	Now() uint64
	// Stats returns the hierarchy's window counters.
	Stats() hier.Stats
}

// Reference adapts the reference loop — a cpu.Model driving a
// hier.Hierarchy — to Machine.
type Reference struct {
	CPU  *cpu.Model
	Hier *hier.Hierarchy
}

// Run implements Machine.
func (r Reference) Run(ctx context.Context, s trace.Stream, n uint64) (cpu.Result, error) {
	return r.CPU.RunContext(ctx, s, n)
}

// RunFunctional implements Machine.
func (r Reference) RunFunctional(ctx context.Context, s trace.Stream, n uint64, cpi float64) (cpu.Result, error) {
	return r.CPU.RunFunctional(ctx, s, n, cpi)
}

// Snapshot implements Machine.
func (r Reference) Snapshot() cpu.Result { return r.CPU.Snapshot() }

// Now implements Machine.
func (r Reference) Now() uint64 { return r.CPU.Now() }

// Stats implements Machine.
func (r Reference) Stats() hier.Stats { return r.Hier.Stats() }

// ResetStats clears the hierarchy's window counters, as
// (*engine.Engine).ResetStats does.
func (r Reference) ResetStats() { r.Hier.ResetStats() }

// Config hands the engine an assembled simulation.
type Config struct {
	// Machine is the one machine the classic and phase schedules step;
	// Run returns an error when they get none. The segmented schedule
	// does not use it: each segment steps its own NewInstance machine.
	Machine Machine
	// Stream is the run's reference stream. The phase schedule profiles a
	// copy of it and the segmented schedule forks every segment off it
	// (trace.Copy), so both reject a stream that cannot be copied.
	Stream trace.Stream
	Policy Policy

	// WarmupRefs is functionally warmed before the first detailed window;
	// MeasureRefs is the exact-run measurement budget the window schedule
	// is laid over (it bounds total work for the fixed-period policy and
	// derives the default window cap — see Policy.MaxWindows).
	WarmupRefs  uint64
	MeasureRefs uint64

	// Progress, when non-nil, receives phase flips (warming shows as
	// PhaseWarmup, detailed windows as PhaseMeasure) on top of the
	// reference counts the CPU model reports. Nil is a valid no-op.
	Progress *obs.Progress

	// Warmables have their recording suspended outside detailed windows.
	Warmables []Warmable

	// Events, when non-nil, receives run-level spans — one per
	// functional-warming stretch and one per detailed window — so the
	// sampling schedule is visible on the same trace as the generation
	// events. Nil is a valid no-op. The segment-parallel schedule records
	// no spans: each segment runs on a freshly built machine, whose sim
	// clock starts at zero, so segment extents would overlap on the run's
	// one sim-cycle timeline.
	Events *events.Sink

	// NewInstance assembles the isolated simulation instance segment seg
	// executes on — typically a freshly built machine with fresh
	// mechanism attachments, which may take over the growable tables of
	// a segment that has finished (see Instance.Finish), cleared, so no
	// state crosses segments. Required when Policy.SegmentWindows > 0; it
	// is called at most once per segment and may be called concurrently
	// from worker goroutines.
	NewInstance func(seg int) (Instance, error)

	// testSegmentDone, when set (tests only), is invoked by the executing
	// worker just before a segment's result is published — the injection
	// point the permutation test uses to force adversarial completion
	// orders.
	testSegmentDone func(seg int)
}

// Instance is one isolated simulation instance the segment-parallel
// scheduler replays a segment on: its own Machine, plus the Warmables
// whose recording brackets that segment's windows.
type Instance struct {
	Machine   Machine
	Warmables []Warmable
	// Finish, when non-nil, is called once the segment is done with the
	// instance — after its last window or on error — so the caller can
	// keep the segment's outputs and hand the instance's tables to a
	// later segment's NewInstance; the schedule steps the instance no
	// more.
	Finish func()
}

// Outcome is a sampled run's aggregate: the statistical estimate plus the
// pooled CPU/hierarchy counters over all detailed windows (warming spans
// contribute nothing to either).
type Outcome struct {
	Estimate Estimate
	CPU      cpu.Result
	Hier     hier.Stats
	// TotalRefs is every reference the schedule consumed — warm-up,
	// warming spans, detailed prefixes and windows. In the segmented
	// schedule it sums over all segment instances (per-segment re-warming
	// included), so it is the authoritative work count for the run.
	TotalRefs uint64
}

// Run executes the alternating warm/measure schedule: an initial
// functional warm-up, then up to the window budget's repetitions of
// [detailed window, warming span]. It returns the estimate with CLT-based
// 95% confidence intervals over the per-window samples.
//
// When Policy.SegmentWindows > 0 the segment-parallel schedule runs
// instead (see runSegmented): the window sequence is split into
// independently warmed segments executed across Policy.Parallelism
// workers, with results pooled in fixed window order. Every schedule
// steps its machines through walker.walk; each owns only where its
// windows sit, its estimator and its pooling.
func Run(ctx context.Context, cfg Config) (Outcome, error) {
	pol := cfg.Policy.withDefaults()
	maxW, err := pol.WindowBudget(cfg.MeasureRefs)
	if err != nil {
		return Outcome{}, err
	}
	if pol.SegmentWindows > 0 {
		return runSegmented(ctx, cfg, pol, maxW)
	}
	if cfg.Machine == nil {
		return Outcome{}, fmt.Errorf("sample: the classic and phase schedules need Config.Machine")
	}
	var out Outcome
	if pol.Schedule == SchedulePhase {
		out, err = runPhase(ctx, cfg, pol, maxW)
	} else {
		out, err = runClassic(ctx, cfg, pol, maxW)
	}
	out.TotalRefs = cfg.Machine.Snapshot().Refs
	return out, err
}

// runClassic is the single-timeline periodic schedule: window i sits i
// periods past the warm-up, and one instance carries warm state across
// the whole run. Under a CI target it stops once the IPC interval is
// narrow enough.
func runClassic(ctx context.Context, cfg Config, pol Policy, maxW int) (Outcome, error) {
	period := pol.period()
	minW := min(pol.MinWindows, maxW)

	// The full fixed-period schedule: warm-up, then maxW windows (with
	// their detailed warm prefixes) and a warming span between consecutive
	// windows (none after the last).
	expected := cfg.WarmupRefs + uint64(maxW)*(pol.DetailedWarmRefs+pol.DetailedRefs) + uint64(maxW-1)*pol.WarmRefs
	cfg.Progress.Begin(obs.PhaseWarmup, expected)

	var (
		pool ratios
		agg  Outcome
	)
	est := &agg.Estimate
	est.Policy = pol
	w := walker{m: cfg.Machine, stream: cfg.Stream, pol: pol, warmables: cfg.Warmables, progress: cfg.Progress, events: cfg.Events}
	err := w.walk(ctx, cfg.WarmupRefs, maxW,
		func(i int) uint64 { return uint64(i) * period },
		func(i int) string { return fmt.Sprintf("window %d", i) },
		func(_ int, dCPU cpu.Result, dHier hier.Stats) bool {
			accumulate(&agg, dCPU, dHier)
			pool.add(dCPU, dHier)
			if pol.TargetRelCI > 0 && pool.ipc.N() >= minW && pool.ipc.Stat().RelCI() <= pol.TargetRelCI {
				est.TargetMet = true
				return false
			}
			return true
		})
	est.Windows, est.WarmRefs, est.DetailedRefs = w.windows, w.warmRefs, w.detailedRefs
	if err != nil {
		return agg, err
	}
	pool.report(est)
	return agg, nil
}

// walker steps one Machine through the cadence every schedule shares:
// functional warming up to a window's start, the detailed prefix, then
// the measured window. It is the only code that steps a Machine.
type walker struct {
	m         Machine
	stream    trace.Stream
	pol       Policy
	warmables []Warmable
	progress  *obs.Progress
	// events receives a span per warming stretch, detailed prefix and
	// window; nil records none.
	events *events.Sink

	// warmRefs and detailedRefs count the references walk took through
	// each path (detailed prefixes included); windows counts the windows
	// it measured.
	warmRefs, detailedRefs uint64
	windows                int
}

// walk functionally warms warmup references, then measures up to n
// windows: window i starts start(i) references past the warm-up's end,
// or at once if the walk is already past that point. For each window it
// warms functionally up to the start, runs the
// DetailedWarmRefs prefix unrecorded, then measures DetailedRefs with the
// Warmables recording, under a span named label(i), and hands the CPU and
// hierarchy deltas to measure. It stops when the stream ends, after a
// short window, or when measure returns false, and returns ErrNoWindows
// when it measured nothing.
func (w *walker) walk(ctx context.Context, warmup uint64, n int, start func(i int) uint64,
	label func(i int) string, measure func(i int, dCPU cpu.Result, dHier hier.Stats) bool) error {
	w.record(false)
	defer w.record(true)
	if ended, err := w.warm(ctx, warmup); err != nil {
		return err
	} else if ended {
		return ErrNoWindows
	}
	origin := w.m.Snapshot().Refs
	for i := 0; i < n; i++ {
		if at, cur := start(i), w.m.Snapshot().Refs-origin; at > cur {
			if ended, err := w.warm(ctx, at-cur); err != nil {
				return err
			} else if ended {
				break
			}
		}
		w.progress.SetPhase(obs.PhaseMeasure)
		if w.pol.DetailedWarmRefs > 0 {
			if ended, err := w.prefix(ctx); err != nil {
				return err
			} else if ended {
				break
			}
		}

		preCPU := w.m.Snapshot()
		preHier := w.m.Stats()
		w.record(true)
		var span *telemetry.Span
		if w.events != nil {
			span = w.events.BeginSpan(label(i), w.m.Now())
		}
		post, err := w.m.Run(ctx, w.stream, w.pol.DetailedRefs)
		w.events.EndSpan(span, w.m.Now())
		w.record(false)
		if err != nil {
			return err
		}
		dCPU := post.Minus(preCPU)
		dHier := w.m.Stats().Minus(preHier)
		if dCPU.Refs == 0 {
			break // stream exhausted
		}
		w.windows++
		w.detailedRefs += dCPU.Refs
		ctrWindows.Inc()
		ctrDetailedRefs.Add(dCPU.Refs)
		if !measure(i, dCPU, dHier) || dCPU.Refs < w.pol.DetailedRefs {
			break // schedule done / stream exhausted mid-window
		}
	}
	if w.windows == 0 {
		return ErrNoWindows
	}
	return nil
}

// warm steps refs references through functional warming and reports
// whether the stream ended first.
func (w *walker) warm(ctx context.Context, refs uint64) (ended bool, err error) {
	w.progress.SetPhase(obs.PhaseWarmup)
	span := w.events.BeginSpan("functional-warm", w.m.Now())
	pre := w.m.Snapshot().Refs
	_, err = w.m.RunFunctional(ctx, w.stream, refs, w.pol.NominalCPI)
	w.events.EndSpan(span, w.m.Now())
	if err != nil {
		return false, err
	}
	done := w.m.Snapshot().Refs - pre
	w.warmRefs += done
	ctrWarmRefs.Add(done)
	return done < refs, nil
}

// prefix runs the detailed path unrecorded — the per-window warm prefix
// that refills OoO/MSHR/bus state before measurement starts — and reports
// whether the stream ended first.
func (w *walker) prefix(ctx context.Context) (ended bool, err error) {
	span := w.events.BeginSpan("detailed-warm", w.m.Now())
	pre := w.m.Snapshot().Refs
	_, err = w.m.Run(ctx, w.stream, w.pol.DetailedWarmRefs)
	w.events.EndSpan(span, w.m.Now())
	if err != nil {
		return false, err
	}
	done := w.m.Snapshot().Refs - pre
	w.detailedRefs += done
	ctrDetailedRefs.Add(done)
	return done < w.pol.DetailedWarmRefs, nil
}

// record switches the Warmables' statistics recording.
func (w *walker) record(on bool) {
	for _, x := range w.warmables {
		x.SetRecording(on)
	}
}

// ratios pools windows into the Ratio estimators the periodic schedules
// report.
type ratios struct{ ipc, l1, l2 Ratio }

// add records one window's deltas.
func (r *ratios) add(dCPU cpu.Result, dHier hier.Stats) {
	r.ipc.Add(float64(dCPU.Insts), float64(dCPU.Cycles))
	r.l1.Add(float64(dHier.Misses), float64(dHier.Accesses))
	if dHier.L2Hits+dHier.L2Misses > 0 {
		r.l2.Add(float64(dHier.L2Misses), float64(dHier.L2Hits+dHier.L2Misses))
	}
}

// report renders the pooled statistics into est.
func (r *ratios) report(est *Estimate) {
	est.IPC, est.L1MissRate, est.L2MissRate = r.ipc.Stat(), r.l1.Stat(), r.l2.Stat()
}

// accumulate pools one detailed window's deltas into the outcome.
func accumulate(agg *Outcome, dCPU cpu.Result, dHier hier.Stats) {
	agg.CPU.Insts += dCPU.Insts
	agg.CPU.Refs += dCPU.Refs
	agg.CPU.Loads += dCPU.Loads
	agg.CPU.Stores += dCPU.Stores
	agg.CPU.Cycles += dCPU.Cycles
	if agg.CPU.Cycles > 0 {
		agg.CPU.IPC = float64(agg.CPU.Insts) / float64(agg.CPU.Cycles)
	}

	agg.Hier.Accesses += dHier.Accesses
	agg.Hier.Hits += dHier.Hits
	agg.Hier.Misses += dHier.Misses
	agg.Hier.VictimHits += dHier.VictimHits
	agg.Hier.ColdMisses += dHier.ColdMisses
	agg.Hier.ConflMiss += dHier.ConflMiss
	agg.Hier.CapMiss += dHier.CapMiss
	agg.Hier.Writebacks += dHier.Writebacks
	agg.Hier.L2Hits += dHier.L2Hits
	agg.Hier.L2Misses += dHier.L2Misses
	agg.Hier.L2Writebacks += dHier.L2Writebacks
	agg.Hier.Prefetches += dHier.Prefetches
	agg.Hier.PFUseful += dHier.PFUseful
}
