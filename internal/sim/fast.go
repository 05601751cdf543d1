package sim

import (
	"context"

	"timekeeping/internal/core"
	"timekeeping/internal/decay"
	"timekeeping/internal/engine"
	"timekeeping/internal/obs"
	"timekeeping/internal/trace"
)

// assembleFast attaches opt's mechanisms to the batched engine and returns
// the rig driving it. tr, when non-nil, is the tracker to attach.
func assembleFast(opt Options, e *engine.Engine, tr *core.FastTracker) (*rig, error) {
	r := &rig{m: e}
	vc, err := newVictimCache(opt, e.NumFrames())
	if err != nil {
		return nil, err
	}
	if vc != nil {
		e.AttachVictim(vc)
		r.vc = vc
	}

	pfs, err := newPrefetchers(opt, e.L1())
	if err != nil {
		return nil, err
	}
	switch {
	case pfs.tk != nil:
		e.AttachTimekeeping(pfs.tk)
	case pfs.dbcp != nil:
		e.AttachDBCP(pfs.dbcp)
	case pfs.nl != nil:
		e.AttachNextLine(pfs.nl)
	}
	r.pfs = pfs

	if tr != nil {
		e.AttachTracker(tr)
		r.tracker = tr
	}
	if len(opt.DecayIntervals) > 0 {
		r.dec = decay.New(e.NumFrames(), opt.DecayIntervals)
		e.AttachDecay(r.dec)
	}
	return r, nil
}

// runFast drives the batched struct-of-arrays engine (internal/engine).
// The construction, warm-up/reset/measure sequence, and result assembly
// mirror runReference exactly, and sampled runs share its runSampled; the
// differential gates hold the two paths byte-identical.
func runFast(ctx context.Context, name string, stream trace.Stream, factory func() (trace.Stream, error), opt Options) (Result, error) {
	e := engine.New(engine.Config{Hier: opt.Hier, CPU: opt.CPU})
	var tr *core.FastTracker
	if opt.Track {
		tr = core.NewFastTracker(e.NumFrames())
	}
	r, err := assembleFast(opt, e, tr)
	if err != nil {
		return Result{}, err
	}
	if opt.DropSWPrefetch {
		stream = &trace.DropSWPrefetch{S: stream}
	}
	e.SetProgress(opt.Progress)

	if opt.Sampling != nil {
		fork := func() (*rig, error) {
			var tr2 *core.FastTracker
			if tr != nil {
				tr2 = tr.Clone()
			}
			return assembleFast(opt, e.Clone(), tr2)
		}
		return runSampled(ctx, name, r, fork, stream, factory, opt)
	}

	opt.Progress.Begin(obs.PhaseWarmup, opt.WarmupRefs+opt.MeasureRefs)
	warm, err := e.Run(ctx, stream, opt.WarmupRefs)
	if err != nil {
		return Result{}, err
	}

	// Measurement window: reset statistics, keep all state (the same
	// sequence, in the same order, as runReference).
	e.ResetStats()
	r.resetMechStats()

	opt.Progress.SetPhase(obs.PhaseMeasure)
	final, err := e.Run(ctx, stream, opt.MeasureRefs)
	if err != nil {
		return Result{}, err
	}

	res := Result{
		Bench:     name,
		CPU:       final.Minus(warm),
		Hier:      e.Stats(),
		TotalRefs: final.Refs,
	}
	r.outputs().report(&res)
	return res, nil
}
