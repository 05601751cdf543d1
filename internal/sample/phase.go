package sample

import (
	"context"
	"fmt"

	"timekeeping/internal/obs"
	"timekeeping/internal/phase"
)

// This file implements the phase-aware schedule (Policy.Schedule ==
// SchedulePhase). Instead of placing detailed windows on a periodic grid,
// the run first profiles the trace: the measure span is divided into
// PhaseIntervals equal intervals, each summarised as a projected
// region-footprint signature (internal/phase — the trace-driven BBV
// analog), and the signatures are clustered with seeded k-means. The
// detailed-window budget is then spent on the intervals nearest each
// cluster centroid, allocated across clusters by interval mass, and the
// pooled estimates weight every window by the mass it represents
// (StratRatio). The profiling pass is a pure stream walk — no simulation
// state advances — so its cost is a small fraction of one functional
// warming pass.
//
// Determinism: the signature projection, the clustering, and the plan are
// pure functions of (stream, Policy); the measurement pass is the classic
// single-timeline walk. Repeat runs are byte-identical, which the golden
// phase corpus (testdata/golden/phase_sampled.json) pins.

// Process-cumulative phase-schedule counters, rendered by /metrics.
var (
	ctrPhaseIntervals  = obs.Default.Counter("sim_phase_intervals_total")
	ctrPhaseClusters   = obs.Default.Counter("sim_phase_clusters_total")
	ctrPhaseRepWindows = obs.Default.Counter("sim_phase_rep_windows_total")
)

// runPhase executes the phase-aware schedule: profile, cluster, then a
// single-timeline measurement pass that functionally warms up to each
// representative interval and measures a detailed window there.
func runPhase(ctx context.Context, cfg Config, pol Policy) (Outcome, error) {
	if cfg.SegmentStream == nil {
		return Outcome{}, fmt.Errorf("sample: the phase schedule needs Config.SegmentStream (a re-derivable stream for the profiling pass)")
	}
	period := pol.DetailedWarmRefs + pol.DetailedRefs + pol.WarmRefs
	budget := int(cfg.MeasureRefs / period)
	if budget < 1 {
		budget = 1
	}
	maxW := pol.MaxWindows
	if maxW == 0 {
		maxW = budget
	}
	nIv := pol.PhaseIntervals
	ivLen := cfg.MeasureRefs / uint64(nIv)
	if ivLen < pol.DetailedWarmRefs+pol.DetailedRefs {
		return Outcome{}, fmt.Errorf("sample: phase interval of %d refs cannot hold a detailed window of %d refs (lower PhaseIntervals or the window size)",
			ivLen, pol.DetailedWarmRefs+pol.DetailedRefs)
	}

	// Profiling pass: signatures over the measure span (the warm-up span
	// is skipped — the periodic schedules never measure it either).
	ps, err := cfg.SegmentStream(0)
	if err != nil {
		return Outcome{}, fmt.Errorf("sample: phase profiling stream: %w", err)
	}
	sigs, profiled, err := phase.Signatures(ctx, ps, cfg.WarmupRefs, ivLen, nIv, phase.Config{Seed: pol.PhaseSeed})
	if err != nil {
		return Outcome{}, err
	}
	if len(sigs) == 0 {
		return Outcome{}, ErrNoWindows
	}
	var cl *phase.Clustering
	if pol.PhaseK > 0 {
		cl = phase.KMeans(sigs, pol.PhaseK, pol.PhaseSeed)
	} else {
		cl = phase.Select(sigs, autoMaxPhaseK, pol.PhaseSeed)
	}
	if maxW > len(sigs) {
		maxW = len(sigs)
	}
	plan := cl.Plan(sigs, maxW)

	ctrPhaseIntervals.Add(uint64(len(sigs)))
	ctrPhaseClusters.Add(uint64(cl.K))
	ctrPhaseRepWindows.Add(uint64(len(plan)))

	// Measurement pass: the classic single-timeline walk, with warming
	// spans stretched to land each window on its representative interval.
	expected := cfg.WarmupRefs
	if len(plan) > 0 {
		last := plan[len(plan)-1]
		expected += uint64(last.Interval)*ivLen + pol.DetailedWarmRefs + pol.DetailedRefs
	}
	cfg.Progress.Begin(obs.PhaseWarmup, expected)

	recording := func(on bool) {
		for _, w := range cfg.Warmables {
			w.SetRecording(on)
		}
	}
	recording(false)
	defer recording(true)

	var (
		ipcR, l1R, l2R StratRatio
		agg            Outcome
	)
	est := &agg.Estimate
	est.Policy = pol
	est.Phase = &PhaseSummary{
		Intervals:    len(sigs),
		IntervalRefs: ivLen,
		ProfiledRefs: profiled,
		K:            cl.K,
		Masses:       cl.Sizes,
	}

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
	// origin is the stream position interval 0 starts at; cur tracks the
	// position within the measure span as windows consume references.
	origin := cfg.Machine.Snapshot().Refs

	for _, w := range plan {
		start := uint64(w.Interval) * ivLen
		cur := cfg.Machine.Snapshot().Refs - origin
		if gap := start - cur; gap > 0 {
			if ended, err := warm(gap); err != nil {
				return agg, err
			} else if ended {
				break
			}
		}
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
		span := cfg.Events.BeginSpan(fmt.Sprintf("phase window @ interval %d (cluster %d)", w.Interval, w.Cluster), cfg.Machine.Now())
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
		est.Phase.RepWindows++
		est.DetailedRefs += dCPU.Refs
		ctrWindows.Inc()
		ctrDetailedRefs.Add(dCPU.Refs)
		accumulate(&agg, dCPU, dHier)

		ipcR.Add(w.Cluster, w.Weight, float64(dCPU.Insts), float64(dCPU.Cycles))
		l1R.Add(w.Cluster, w.Weight, float64(dHier.Misses), float64(dHier.Accesses))
		if dHier.L2Hits+dHier.L2Misses > 0 {
			l2R.Add(w.Cluster, w.Weight, float64(dHier.L2Misses), float64(dHier.L2Hits+dHier.L2Misses))
		}
		if dCPU.Refs < pol.DetailedRefs {
			break // stream exhausted mid-window
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
