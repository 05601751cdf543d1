package sample

import (
	"context"
	"errors"
	"fmt"

	"timekeeping/internal/cpu"
	"timekeeping/internal/events"
	"timekeeping/internal/hier"
	"timekeeping/internal/obs"
	"timekeeping/internal/trace"
)

// ErrNoWindows is returned when the stream ends before a single detailed
// window completes: there is nothing to estimate from.
var ErrNoWindows = errors.New("sample: stream ended before the first detailed window")

// Warmable is state whose statistics recording can be suspended during
// functional warming while the underlying hardware state keeps advancing
// (core.Tracker implements it).
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
	Machine Machine
	Stream  trace.Stream
	Policy  Policy

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
	// no spans: each segment runs on a machine forked from the cold
	// prototype, whose sim clock starts over at the fork, so segment
	// extents would overlap on the run's one sim-cycle timeline.
	Events *events.Sink

	// SegmentStream returns an independent reference stream positioned
	// `offset` references past the run's origin (after any stream-level
	// filtering such as DropSWPrefetch). Required when
	// Policy.SegmentWindows > 0; each call must yield a stream that
	// reproduces the original sequence from that offset. A stream shorter
	// than the offset should return an empty stream, not an error.
	SegmentStream func(offset uint64) (trace.Stream, error)

	// NewInstance assembles the isolated simulation instance segment seg
	// executes on — typically clones of a cold prototype with fresh
	// mechanism attachments. Required when Policy.SegmentWindows > 0; it
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
	// keep the segment's outputs and let the rest of the instance go.
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
// functional warm-up, then up to maxWindows repetitions of [detailed
// window, warming span]. It returns the estimate with CLT-based 95%
// confidence intervals over the per-window samples.
//
// When Policy.SegmentWindows > 0 the segment-parallel schedule runs
// instead (see runSegmented): the window sequence is split into
// independently warmed segments executed across Policy.Parallelism
// workers, with results pooled in fixed window order.
func Run(ctx context.Context, cfg Config) (Outcome, error) {
	pol := cfg.Policy.withDefaults()
	if pol.SegmentWindows > 0 {
		return runSegmented(ctx, cfg, pol)
	}
	if pol.Schedule == SchedulePhase {
		out, err := runPhase(ctx, cfg, pol)
		out.TotalRefs = cfg.Machine.Snapshot().Refs
		return out, err
	}
	out, err := runClassic(ctx, cfg, pol)
	out.TotalRefs = cfg.Machine.Snapshot().Refs
	return out, err
}

// runClassic is the single-timeline schedule: one instance carries warm
// state across the whole run.
func runClassic(ctx context.Context, cfg Config, pol Policy) (Outcome, error) {
	period := pol.DetailedWarmRefs + pol.DetailedRefs + pol.WarmRefs

	budget := int(cfg.MeasureRefs / period)
	if budget < 1 {
		budget = 1
	}
	maxW := pol.MaxWindows
	if maxW == 0 {
		maxW = budget
		if pol.TargetRelCI > 0 {
			maxW = 4 * budget
		}
	}
	minW := pol.MinWindows
	if minW > maxW {
		minW = maxW
	}

	// The full fixed-period schedule: warm-up, then maxW windows (with
	// their detailed warm prefixes) and a warming span between consecutive
	// windows (none after the last).
	expected := cfg.WarmupRefs + uint64(maxW)*(pol.DetailedWarmRefs+pol.DetailedRefs) + uint64(maxW-1)*pol.WarmRefs
	cfg.Progress.Begin(obs.PhaseWarmup, expected)

	recording := func(on bool) {
		for _, w := range cfg.Warmables {
			w.SetRecording(on)
		}
	}
	recording(false)
	defer recording(true)

	var (
		ipcR, l1R, l2R Ratio
		agg            Outcome
	)
	est := &agg.Estimate
	est.Policy = pol

	warm := func(refs uint64) (ended bool, err error) {
		cfg.Progress.SetPhase(obs.PhaseWarmup)
		span := cfg.Events.BeginSpan("functional-warm", cfg.Machine.Now())
		pre := cfg.Machine.Snapshot().Refs
		if _, err := cfg.Machine.RunFunctional(ctx, cfg.Stream, refs, pol.NominalCPI); err != nil {
			cfg.Events.EndSpan(span, cfg.Machine.Now())
			return false, err
		}
		cfg.Events.EndSpan(span, cfg.Machine.Now())
		done := cfg.Machine.Snapshot().Refs - pre
		ctrWarmRefs.Add(done)
		est.WarmRefs += done
		return done < refs, nil
	}

	// detailed runs the detailed path unrecorded — the per-window warm
	// prefix that refills OoO/MSHR/bus state before measurement starts.
	detailed := func(refs uint64) (ended bool, err error) {
		span := cfg.Events.BeginSpan("detailed-warm", cfg.Machine.Now())
		pre := cfg.Machine.Snapshot().Refs
		if _, err := cfg.Machine.Run(ctx, cfg.Stream, refs); err != nil {
			cfg.Events.EndSpan(span, cfg.Machine.Now())
			return false, err
		}
		cfg.Events.EndSpan(span, cfg.Machine.Now())
		done := cfg.Machine.Snapshot().Refs - pre
		est.DetailedRefs += done
		ctrDetailedRefs.Add(done)
		return done < refs, nil
	}

	if ended, err := warm(cfg.WarmupRefs); err != nil {
		return agg, err
	} else if ended {
		return agg, ErrNoWindows
	}

	for w := 0; w < maxW; w++ {
		cfg.Progress.SetPhase(obs.PhaseMeasure)
		if pol.DetailedWarmRefs > 0 {
			if ended, err := detailed(pol.DetailedWarmRefs); err != nil {
				return agg, err
			} else if ended {
				break
			}
		}

		preCPU := cfg.Machine.Snapshot()
		preHier := cfg.Machine.Stats()
		recording(true)
		span := cfg.Events.BeginSpan(fmt.Sprintf("window %d", w), cfg.Machine.Now())
		post, err := cfg.Machine.Run(ctx, cfg.Stream, pol.DetailedRefs)
		cfg.Events.EndSpan(span, cfg.Machine.Now())
		recording(false)
		if err != nil {
			return agg, err
		}
		dCPU := post.Minus(preCPU)
		dHier := cfg.Machine.Stats().Minus(preHier)
		if dCPU.Refs == 0 {
			break // stream exhausted
		}

		est.Windows++
		est.DetailedRefs += dCPU.Refs
		ctrWindows.Inc()
		ctrDetailedRefs.Add(dCPU.Refs)
		accumulate(&agg, dCPU, dHier)

		ipcR.Add(float64(dCPU.Insts), float64(dCPU.Cycles))
		l1R.Add(float64(dHier.Misses), float64(dHier.Accesses))
		if dHier.L2Hits+dHier.L2Misses > 0 {
			l2R.Add(float64(dHier.L2Misses), float64(dHier.L2Hits+dHier.L2Misses))
		}

		if pol.TargetRelCI > 0 && est.Windows >= minW {
			if ipcR.Stat().RelCI() <= pol.TargetRelCI {
				est.TargetMet = true
				break
			}
		}
		if dCPU.Refs < pol.DetailedRefs || w == maxW-1 {
			break // stream exhausted mid-window / schedule complete
		}

		if ended, err := warm(pol.WarmRefs); err != nil {
			return agg, err
		} else if ended {
			break
		}
	}
	if est.Windows == 0 {
		return agg, ErrNoWindows
	}

	est.IPC = ipcR.Stat()
	est.L1MissRate = l1R.Stat()
	est.L2MissRate = l2R.Stat()
	return agg, nil
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
