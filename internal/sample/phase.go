package sample

import (
	"context"
	"fmt"

	"timekeeping/internal/cpu"
	"timekeeping/internal/hier"
	"timekeeping/internal/obs"
	"timekeeping/internal/phase"
	"timekeeping/internal/trace"
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
// pure functions of (stream, Policy); the measurement pass is the walk
// the periodic schedules take, with each window placed at its
// representative interval instead of on the periodic grid. Repeat runs
// are byte-identical, which the golden phase corpus
// (testdata/golden/phase_sampled.json) pins.

// Process-cumulative phase-schedule counters, rendered by /metrics.
var (
	ctrPhaseIntervals  = obs.Default.Counter("sim_phase_intervals_total")
	ctrPhaseClusters   = obs.Default.Counter("sim_phase_clusters_total")
	ctrPhaseRepWindows = obs.Default.Counter("sim_phase_rep_windows_total")
)

// runPhase executes the phase-aware schedule: profile, cluster, then a
// single-timeline walk that places each window at its representative
// interval.
func runPhase(ctx context.Context, cfg Config, pol Policy, maxW int) (Outcome, error) {
	// The profiling pass walks a copy taken before warm-up; the
	// measurement pass then walks the stream itself from the same origin.
	ps, ok := trace.Copy(cfg.Stream)
	if !ok {
		return Outcome{}, fmt.Errorf("sample: the phase schedule needs a stream that can be copied for its profiling pass")
	}
	nIv := pol.PhaseIntervals
	ivLen := cfg.MeasureRefs / uint64(nIv)
	if ivLen < pol.DetailedWarmRefs+pol.DetailedRefs {
		return Outcome{}, fmt.Errorf("sample: phase interval of %d refs cannot hold a detailed window of %d refs (lower PhaseIntervals or the window size)",
			ivLen, pol.DetailedWarmRefs+pol.DetailedRefs)
	}

	// Profiling pass: signatures over the measure span (the warm-up span
	// is skipped — the periodic schedules never measure it either).
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
	plan := cl.Plan(sigs, min(maxW, len(sigs)))

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
	w := walker{m: cfg.Machine, stream: cfg.Stream, pol: pol, warmables: cfg.Warmables, progress: cfg.Progress, events: cfg.Events}
	err = w.walk(ctx, cfg.WarmupRefs, len(plan),
		func(i int) uint64 { return uint64(plan[i].Interval) * ivLen },
		func(i int) string {
			return fmt.Sprintf("phase window @ interval %d (cluster %d)", plan[i].Interval, plan[i].Cluster)
		},
		func(i int, dCPU cpu.Result, dHier hier.Stats) bool {
			p := plan[i]
			accumulate(&agg, dCPU, dHier)
			ipcR.Add(p.Cluster, p.Weight, float64(dCPU.Insts), float64(dCPU.Cycles))
			l1R.Add(p.Cluster, p.Weight, float64(dHier.Misses), float64(dHier.Accesses))
			if dHier.L2Hits+dHier.L2Misses > 0 {
				l2R.Add(p.Cluster, p.Weight, float64(dHier.L2Misses), float64(dHier.L2Hits+dHier.L2Misses))
			}
			return true
		})
	est.Windows, est.WarmRefs, est.DetailedRefs = w.windows, w.warmRefs, w.detailedRefs
	est.Phase.RepWindows = w.windows
	if err != nil {
		return agg, err
	}
	est.IPC = ipcR.Stat()
	est.L1MissRate = l1R.Stat()
	est.L2MissRate = l2R.Stat()
	return agg, nil
}
