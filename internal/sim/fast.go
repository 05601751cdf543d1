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
// engine's and the mechanisms' events. blocks, the run's expected count
// of distinct L1 blocks (0 when unknown), sizes the first grow of the
// seen set and of the tracker's block-history table. A sampled run
// builds its own machine or every segment's through it.
func assembleFast(opt Options, ev *events.Sink, blocks int) (*engine.Engine, *rig) {
	e := engine.New(engine.Config{Hier: opt.Hier, CPU: opt.CPU})
	e.SetEvents(ev)
	e.SetProgress(opt.Progress)
	e.ExpectBlocks(blocks)
	r := &rig{m: e}
	if vc := newVictimCache(opt, e.NumFrames()); vc != nil {
		vc.SetEvents(ev)
		e.AttachVictim(vc)
		r.vc = vc
	}

	pfs := newPrefetchers(opt, e.L1())
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
		tr.ExpectBlocks(blocks)
		e.AttachTracker(tr)
		r.tracker = tr
	}
	if len(opt.DecayIntervals) > 0 {
		r.dec = decay.New(e.NumFrames(), opt.DecayIntervals)
		r.dec.SetEvents(ev)
		e.AttachDecay(r.dec)
	}
	return e, r
}

// takeTables hands r, a segment's fresh rig, the growable hash tables of
// donor, a finished segment's rig built from the same options: on the
// batched engine, the classifier's seen set and the tracker's
// block-history table, each cleared. Reference rigs take nothing; their
// tracker keeps a Go map.
func (r *rig) takeTables(donor *rig) {
	e, ok := r.m.(*engine.Engine)
	if !ok {
		return
	}
	e.TakeSeenSet(donor.m.(*engine.Engine))
	if r.tracker != nil {
		r.tracker.(*core.FastTracker).TakeTable(donor.tracker.(*core.FastTracker))
	}
}

// runFast drives the batched struct-of-arrays engine (internal/engine)
// behind every Run. The construction, warm-up/reset/measure
// sequence and result assembly mirror runReference exactly, and both
// share runExact and runSampled; the differential gates hold the two
// paths byte-identical.
func runFast(ctx context.Context, name string, stream trace.Stream, opt Options, blocks int) (Result, error) {
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
		build := func(ev *events.Sink) *rig {
			_, r := assembleFast(opt, ev, blocks)
			return r
		}
		return runSampled(ctx, name, build, stream, opt)
	}

	e, r := assembleFast(opt, opt.Events, blocks)
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
