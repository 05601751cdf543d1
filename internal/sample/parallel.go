package sample

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"timekeeping/internal/cpu"
	"timekeeping/internal/hier"
	"timekeeping/internal/obs"
	"timekeeping/internal/trace"
)

// This file implements the segment-parallel schedule. The window sequence
// of the classic schedule is partitioned into contiguous segments of
// Policy.SegmentWindows windows. Segment k's stream fork sits exactly
// k·SegmentWindows·period references past the run origin, so after the
// segment functionally re-warms WarmupRefs its windows land on the very
// stream positions the classic schedule would have measured; only the
// warm state differs (rebuilt locally per segment instead of carried
// across the whole run). The forks are copies taken from one walk over
// the run's stream (forkSegments), so no reference is generated twice
// to reach a fork.
//
// Determinism argument: the segmentation, every segment's schedule, and
// the pooling pass are pure functions of (Policy, WarmupRefs,
// MeasureRefs). Workers write disjoint slots of the results slice, and
// pooling walks segments — and windows within them — in ascending index
// order after all workers finish. Worker count and completion order can
// therefore influence neither which windows are measured nor the order
// their samples enter the Ratio estimators: the estimate is bit-identical
// at every Parallelism level.

// forkCheckEvery is how many references the fork walk takes between
// context checks, as phase.Signatures does.
const forkCheckEvery = 8192

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

// segJob is one segment handed to a worker: its index and its fork.
type segJob struct {
	seg    int
	stream trace.Stream
}

// runSegmented executes the segment-parallel schedule.
func runSegmented(ctx context.Context, cfg Config, pol Policy, maxW int) (Outcome, error) {
	if cfg.NewInstance == nil {
		return Outcome{}, fmt.Errorf("sample: segmented sampling needs Config.NewInstance")
	}
	first, ok := trace.Copy(cfg.Stream)
	if !ok {
		return Outcome{}, fmt.Errorf("sample: segmented sampling needs a stream that can be copied for its segment forks")
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
	jobs := make(chan segJob)
	var wg sync.WaitGroup
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				wk := min(sw, maxW-j.seg*sw)
				res := runSegment(ctx, cfg, pol, j.seg, j.stream, wk)
				if cfg.testSegmentDone != nil {
					cfg.testSegmentDone(j.seg)
				}
				results[j.seg] = res
				ctrSegments.Inc()
			}
		}()
	}
	forkErr := forkSegments(ctx, cfg.Stream, first, numSeg, uint64(sw)*period, jobs)
	close(jobs)
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
	if forkErr != nil {
		return agg, forkErr
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

// forkSegments walks s once and hands segment k a copy of s taken
// k·stride references in; segment 0 gets fork, taken at the origin. A
// fork past the stream's end replays nothing. The walk checks ctx every
// forkCheckEvery references and dispatches no segment once ctx is done;
// it then returns ctx's error.
func forkSegments(ctx context.Context, s, fork trace.Stream, numSeg int, stride uint64, jobs chan<- segJob) error {
	var r trace.Ref
	for k := 0; ; k++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		select {
		case jobs <- segJob{seg: k, stream: fork}:
		case <-ctx.Done():
			return ctx.Err()
		}
		if k+1 == numSeg {
			return nil
		}
		for i := uint64(0); i < stride && s.Next(&r); i++ {
			if i%forkCheckEvery == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
		}
		fork, _ = trace.Copy(s) // s was copied at the origin, so it copies here too
	}
}

// runSegment replays one segment on its own instance: walk wk periodic
// windows over the segment's fork after re-warming WarmupRefs. The walk
// takes no warming span after the segment's last window, since the next
// segment re-warms from its own fork, and records no spans (see
// Config.Events).
func runSegment(ctx context.Context, cfg Config, pol Policy, seg int, stream trace.Stream, wk int) (r segResult) {
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
