package sim

import (
	"context"
	"log/slog"

	"timekeeping/internal/core"
	"timekeeping/internal/decay"
	"timekeeping/internal/engine"
	"timekeeping/internal/events"
	"timekeeping/internal/oracle"
	"timekeeping/internal/trace"
)

// assembleFast builds the batched engine with opt's mechanisms attached and
// returns it with the rig driving it. ev, when non-nil, receives the
// engine's and the mechanisms' events. A sampled run builds its own machine
// and every segment's through it.
func assembleFast(opt Options, ev *events.Sink) (*engine.Engine, *rig, error) {
	e := engine.New(engine.Config{Hier: opt.Hier, CPU: opt.CPU})
	e.SetEvents(ev)
	e.SetProgress(opt.Progress)
	r := &rig{m: e}
	vc, err := newVictimCache(opt, e.NumFrames())
	if err != nil {
		return nil, nil, err
	}
	if vc != nil {
		vc.SetEvents(ev)
		e.AttachVictim(vc)
		r.vc = vc
	}

	pfs, err := newPrefetchers(opt, e.L1())
	if err != nil {
		return nil, nil, err
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

	if opt.Track {
		tr := core.NewFastTracker(e.NumFrames())
		e.AttachTracker(tr)
		r.tracker = tr
	}
	if len(opt.DecayIntervals) > 0 {
		r.dec = decay.New(e.NumFrames(), opt.DecayIntervals)
		r.dec.SetEvents(ev)
		e.AttachDecay(r.dec)
	}
	return e, r, nil
}

// runFast drives the batched struct-of-arrays engine (internal/engine)
// behind every Run. The construction, warm-up/reset/measure
// sequence and result assembly mirror runReference exactly, and both
// share runExact and runSampled; the differential gates hold the two
// paths byte-identical.
func runFast(ctx context.Context, name string, stream trace.Stream, opt Options) (Result, error) {
	e, r, err := assembleFast(opt, opt.Events)
	if err != nil {
		return Result{}, err
	}
	if opt.DropSWPrefetch {
		stream = &trace.DropSWPrefetch{S: stream}
	}

	if opt.Sampling != nil {
		// An explicit Audit was rejected in Run; TK_AUDIT-forced audit
		// cannot apply (the functional path performs no timing for the
		// oracle to mirror), so it is skipped with a warning.
		if auditForced() {
			slog.Warn("TK_AUDIT ignored: sampled runs cannot be audited (functional warming has no timing for the oracle to mirror)",
				"bench", name)
		}
		fork := func() (*rig, error) {
			_, r, err := assembleFast(opt, nil)
			return r, err
		}
		return runSampled(ctx, name, r, fork, stream, opt)
	}

	var aud *oracle.Auditor
	if opt.Audit || auditForced() {
		// The tracker and decay cross-checks are frame-keyed on the real
		// side and block-keyed on the oracle side; the two agree only
		// while no prefetcher swaps frame contents behind the observers'
		// backs, so those comparisons gate on PrefetchOff. The lockstep
		// contents checks are always on.
		aud = oracle.NewAuditor(oracle.Config{
			L1:             opt.Hier.L1,
			L2:             opt.Hier.L2,
			PerfectL1:      opt.Hier.PerfectL1,
			DecayIntervals: opt.DecayIntervals,
			CompareTracker: opt.Track && opt.Prefetcher == PrefetchOff,
			CompareDecay:   opt.Prefetcher == PrefetchOff,
		})
		e.SetAuditor(aud)
	}
	return runExact(ctx, name, r, stream, opt, aud)
}
