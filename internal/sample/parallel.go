package sample

import (
	"context"
	"fmt"
	"sync"

	"timekeeping/internal/cpu"
	"timekeeping/internal/hier"
	"timekeeping/internal/obs"
)

// This file implements the segment-parallel schedule. The window sequence
// of the classic schedule is partitioned into contiguous segments of
// Policy.SegmentWindows windows. Segment k's stream fork sits exactly
// k·SegmentWindows·period references past the run origin, so after the
// segment functionally re-warms WarmupRefs its windows land on the very
// stream positions the classic schedule would have measured; only the
// warm state differs (rebuilt locally per segment instead of carried
// across the whole run).
//
// Determinism argument: the segmentation, every segment's schedule, and
// the pooling pass are pure functions of (Policy, WarmupRefs,
// MeasureRefs). Workers write disjoint slots of the results slice, and
// pooling walks segments — and windows within them — in ascending index
// order after all workers finish. Worker count and completion order can
// therefore influence neither which windows are measured nor the order
// their samples enter the Welford/Ratio estimators: the estimate is
// bit-identical at every Parallelism level.

// segWindow is one measured window's deltas, kept per window so pooling
// runs in fixed window order regardless of completion order.
type segWindow struct {
	cpu  cpu.Result
	hier hier.Stats
}

// segResult is one segment's raw output.
type segResult struct {
	windows      []segWindow
	warmRefs     uint64
	detailedRefs uint64
	totalRefs    uint64
	err          error
}

// runSegmented executes the segment-parallel schedule.
func runSegmented(ctx context.Context, cfg Config, pol Policy) (Outcome, error) {
	if cfg.SegmentStream == nil || cfg.NewInstance == nil {
		return Outcome{}, fmt.Errorf("sample: segmented sampling needs Config.SegmentStream and Config.NewInstance")
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
	sw := pol.SegmentWindows
	numSeg := (maxW + sw - 1) / sw
	par := pol.Parallelism
	if par < 1 {
		par = 1
	}
	if par > numSeg {
		par = numSeg
	}

	// Full-schedule work estimate: each segment re-warms WarmupRefs, each
	// window costs its detailed prefix plus the window itself, and a
	// warming span follows every window except a segment's last.
	expected := uint64(numSeg)*cfg.WarmupRefs +
		uint64(maxW)*(pol.DetailedWarmRefs+pol.DetailedRefs) +
		uint64(maxW-numSeg)*pol.WarmRefs
	cfg.Progress.Begin(obs.PhaseWarmup, expected)

	results := make([]segResult, numSeg)
	segCh := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range segCh {
				wk := sw
				if first := k * sw; maxW-first < wk {
					wk = maxW - first
				}
				res := runSegment(ctx, cfg, pol, k, uint64(k)*uint64(sw)*period, wk)
				if cfg.testSegmentDone != nil {
					cfg.testSegmentDone(k)
				}
				results[k] = res
				ctrSegments.Inc()
			}
		}()
	}
	for k := 0; k < numSeg; k++ {
		segCh <- k
	}
	close(segCh)
	wg.Wait()

	var (
		ipcR, l1R, l2R Ratio
		agg            Outcome
	)
	est := &agg.Estimate
	est.Policy = pol
	// The echoed policy normalizes Parallelism away: it is an execution
	// knob that cannot influence the estimate, so the echo — like the
	// estimate itself — is identical at every parallelism level.
	est.Policy.Parallelism = 0
	for k := range results {
		r := &results[k]
		est.WarmRefs += r.warmRefs
		est.DetailedRefs += r.detailedRefs
		agg.TotalRefs += r.totalRefs
		for i := range r.windows {
			w := &r.windows[i]
			est.Windows++
			ctrWindows.Inc()
			if par > 1 {
				ctrParallelWindows.Inc()
			}
			accumulate(&agg, w.cpu, w.hier)
			ipcR.Add(float64(w.cpu.Insts), float64(w.cpu.Cycles))
			l1R.Add(float64(w.hier.Misses), float64(w.hier.Accesses))
			if w.hier.L2Hits+w.hier.L2Misses > 0 {
				l2R.Add(float64(w.hier.L2Misses), float64(w.hier.L2Hits+w.hier.L2Misses))
			}
		}
	}
	for k := range results {
		if results[k].err != nil {
			return agg, results[k].err
		}
	}
	// A short stream is only an error when no segment measured anything.
	if est.Windows == 0 {
		return agg, ErrNoWindows
	}
	est.IPC = ipcR.Stat()
	est.L1MissRate = l1R.Stat()
	est.L2MissRate = l2R.Stat()
	return agg, nil
}

// runSegment replays one segment: re-derive the stream at the segment's
// fork offset, functionally warm WarmupRefs, then run wk windows with the
// classic [detailed prefix, window, warming span] cadence — no trailing
// span after the segment's last window, since the next segment re-warms
// from its own fork.
func runSegment(ctx context.Context, cfg Config, pol Policy, seg int, offset uint64, wk int) (r segResult) {
	stream, err := cfg.SegmentStream(offset)
	if err != nil {
		r.err = fmt.Errorf("sample: segment %d stream: %w", seg, err)
		return r
	}
	inst, err := cfg.NewInstance(seg)
	if err != nil {
		r.err = fmt.Errorf("sample: segment %d instance: %w", seg, err)
		return r
	}
	if inst.Finish != nil {
		defer inst.Finish()
	}
	m := inst.Machine

	recording := func(on bool) {
		for _, w := range inst.Warmables {
			w.SetRecording(on)
		}
	}
	recording(false)
	defer recording(true)
	defer func() { r.totalRefs = m.Snapshot().Refs }()

	warm := func(refs uint64) (ended bool, err error) {
		cfg.Progress.SetPhase(obs.PhaseWarmup)
		pre := m.Snapshot().Refs
		if _, err := m.RunFunctional(ctx, stream, refs, pol.NominalCPI); err != nil {
			return false, err
		}
		done := m.Snapshot().Refs - pre
		ctrWarmRefs.Add(done)
		r.warmRefs += done
		return done < refs, nil
	}

	if ended, err := warm(cfg.WarmupRefs); err != nil || ended {
		r.err = err
		return r
	}

	for j := 0; j < wk; j++ {
		cfg.Progress.SetPhase(obs.PhaseMeasure)
		if pol.DetailedWarmRefs > 0 {
			pre := m.Snapshot().Refs
			if _, err := m.Run(ctx, stream, pol.DetailedWarmRefs); err != nil {
				r.err = err
				return r
			}
			done := m.Snapshot().Refs - pre
			r.detailedRefs += done
			ctrDetailedRefs.Add(done)
			if done < pol.DetailedWarmRefs {
				return r
			}
		}

		preCPU := m.Snapshot()
		preHier := m.Stats()
		recording(true)
		post, err := m.Run(ctx, stream, pol.DetailedRefs)
		recording(false)
		if err != nil {
			r.err = err
			return r
		}
		dCPU := post.Minus(preCPU)
		dHier := m.Stats().Minus(preHier)
		if dCPU.Refs == 0 {
			return r // stream exhausted
		}
		r.detailedRefs += dCPU.Refs
		ctrDetailedRefs.Add(dCPU.Refs)
		r.windows = append(r.windows, segWindow{cpu: dCPU, hier: dHier})
		if dCPU.Refs < pol.DetailedRefs || j == wk-1 {
			return r // stream exhausted mid-window / segment complete
		}
		if ended, err := warm(pol.WarmRefs); err != nil || ended {
			r.err = err
			return r
		}
	}
	return r
}
