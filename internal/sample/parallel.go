package sample

import (
	"context"
	"errors"
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
// their samples enter the Ratio estimators: the estimate is bit-identical
// at every Parallelism level.

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
func runSegmented(ctx context.Context, cfg Config, pol Policy, maxW int) (Outcome, error) {
	if cfg.SegmentStream == nil || cfg.NewInstance == nil {
		return Outcome{}, fmt.Errorf("sample: segmented sampling needs Config.SegmentStream and Config.NewInstance")
	}
	period := pol.period()
	sw := pol.SegmentWindows
	numSeg := (maxW + sw - 1) / sw
	par := min(max(pol.Parallelism, 1), numSeg)

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
		pool ratios
		agg  Outcome
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
			if par > 1 {
				ctrParallelWindows.Inc()
			}
			accumulate(&agg, w.cpu, w.hier)
			pool.add(w.cpu, w.hier)
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
	pool.report(est)
	return agg, nil
}

// runSegment replays one segment on its own instance: re-derive the
// stream at the segment's fork offset, then walk wk periodic windows
// after re-warming WarmupRefs. The walk takes no warming span after the
// segment's last window, since the next segment re-warms from its own
// fork, and records no spans (see Config.Events).
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
	period := pol.period()
	w := walker{m: inst.Machine, stream: stream, pol: pol, warmables: inst.Warmables, progress: cfg.Progress}
	err = w.walk(ctx, cfg.WarmupRefs, wk,
		func(j int) uint64 { return uint64(j) * period },
		nil,
		func(_ int, dCPU cpu.Result, dHier hier.Stats) bool {
			r.windows = append(r.windows, segWindow{cpu: dCPU, hier: dHier})
			return true
		})
	// A segment whose stream ends before its first window contributes
	// nothing; only the run as a whole can have no windows.
	if !errors.Is(err, ErrNoWindows) {
		r.err = err
	}
	r.warmRefs, r.detailedRefs, r.totalRefs = w.warmRefs, w.detailedRefs, inst.Machine.Snapshot().Refs
	return r
}
