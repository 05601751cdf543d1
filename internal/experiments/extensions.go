package experiments

import (
	"timekeeping/internal/decay"
	"timekeeping/internal/report"
	"timekeeping/internal/sim"
	"timekeeping/internal/stats"
)

// This file holds experiments beyond the paper's figures: the future-work
// adaptive victim filter the paper sketches, the cache-decay mechanism the
// paper builds on (its reference [9]), and a next-line prefetcher that
// shows what the timekeeping machinery buys over the cheapest baseline.

// ExtDecay evaluates cache decay: leakage saved vs extra misses across
// decay intervals, over a representative workload subset.
func ExtDecay(r *Runner) []*report.Table {
	cols := []string{"bench"}
	for _, iv := range decay.DefaultIntervals {
		cols = append(cols, report.Int(iv)+"cyc")
	}
	off := &report.Table{Title: "Extension: cache decay — leakage fraction saved", Columns: cols}
	cost := &report.Table{Title: "Extension: cache decay — extra misses per access", Columns: cols}

	for _, b := range benchSubset(r, []string{"ammp", "swim", "twolf", "gcc", "eon"}) {
		// A plain sim run with the decay evaluation attached: memoised
		// through the shared cache and covered by audit mode, unlike the
		// hand-rolled hierarchy this used before.
		res := r.point("ext-decay", b, func(o *sim.Options) { o.DecayIntervals = decay.DefaultIntervals })

		offRow, costRow := []string{b}, []string{b}
		for _, d := range res.Decay {
			offRow = append(offRow, report.Pct(d.OffFraction))
			costRow = append(costRow, report.F(d.ExtraMissRate, 4))
		}
		off.AddRow(offRow...)
		cost.AddRow(costRow...)
	}
	off.AddNote("dead times dwarf live times, so short decay intervals shut off most line-cycles")
	cost.AddNote("induced misses stay small because decayed idle periods are mostly dead time")
	return []*report.Table{off, cost}
}

// ExtAdaptiveVictim compares the static 1K-cycle decay filter with the
// run-time adaptive filter the paper proposes as future work.
func ExtAdaptiveVictim(r *Runner) []*report.Table {
	r.ensureAll(cfgVDecay)
	t := &report.Table{
		Title:   "Extension: static vs adaptive victim-filter threshold",
		Columns: []string{"bench", "static 1K gain", "adaptive gain", "static fills/cyc", "adaptive fills/cyc"},
	}
	var static, adapt []float64
	for _, b := range benchSubset(r, []string{"twolf", "vpr", "crafty", "parser", "gcc", "swim"}) {
		base := r.get(cfgBase, b)
		sres := r.get(cfgVDecay, b)

		ares := r.point("ext-adaptive", b, func(o *sim.Options) { o.VictimFilter = sim.VictimAdaptive })

		sg, ag := sim.Improvement(sres, base), sim.Improvement(ares, base)
		t.AddRow(b, report.PctPoints(sg), report.PctPoints(ag),
			report.F(sres.VictimFillPerCycle(), 4), report.F(ares.VictimFillPerCycle(), 4))
		static = append(static, sg)
		adapt = append(adapt, ag)
	}
	t.AddRow("[mean]", report.PctPoints(stats.Mean(static)), report.PctPoints(stats.Mean(adapt)), "", "")
	t.AddNote("the adaptive loop steers admissions toward the victim-cache size (paper Section 4.2, closing paragraph)")
	return []*report.Table{t}
}

// ExtReloadFilter compares the shipped dead-time victim filter with the
// paper's L2-located alternative: admission by reload interval (Section
// 4.1's other reliable conflict indicator, Section 4.2's "unfortunately,
// reload intervals are only available for counting in L2").
func ExtReloadFilter(r *Runner) []*report.Table {
	r.ensureAll(cfgVDecay)
	r.ensureAll(cfgVNone)
	t := &report.Table{
		Title:   "Extension: dead-time (L1) vs reload-interval (L2) victim filters",
		Columns: []string{"bench", "unfiltered", "decay(L1)", "reload(L2)", "reload fills/cyc"},
	}
	for _, b := range benchSubset(r, []string{"twolf", "vpr", "crafty", "parser", "swim", "ammp"}) {
		base := r.get(cfgBase, b)
		rres := r.point("ext-reloadfilter", b, func(o *sim.Options) { o.VictimFilter = sim.VictimReload })
		t.AddRow(b,
			report.PctPoints(sim.Improvement(r.get(cfgVNone, b), base)),
			report.PctPoints(sim.Improvement(r.get(cfgVDecay, b), base)),
			report.PctPoints(sim.Improvement(rres, base)),
			report.F(rres.VictimFillPerCycle(), 4))
	}
	t.AddNote("both conflict indicators preserve the gain; dead time needs one 2-bit counter per L1 line, reload needs per-block L2-side state")
	return []*report.Table{t}
}

// ExtNextLine adds a tagged next-line prefetcher to the Figure 19
// comparison: cheap sequential prefetching versus the correlating designs.
func ExtNextLine(r *Runner) []*report.Table {
	r.ensureAll(cfgTK)
	r.ensureAll(cfgDBCP)
	t := &report.Table{
		Title:   "Extension: next-line vs DBCP vs timekeeping prefetch (IPC gain)",
		Columns: []string{"bench", "next-line", "DBCP 2MB", "timekeeping 8KB"},
	}
	var nls, dbs, tks []float64
	for _, b := range benchSubset(r, []string{"swim", "applu", "facerec", "ammp", "mcf", "twolf", "gcc", "art"}) {
		base := r.get(cfgBase, b)
		nres := r.point("ext-nextline", b, func(o *sim.Options) { o.Prefetcher = sim.PrefetchNextLine })

		nl := sim.Improvement(nres, base)
		db := sim.Improvement(r.get(cfgDBCP, b), base)
		tk := sim.Improvement(r.get(cfgTK, b), base)
		t.AddRow(b, report.PctPoints(nl), report.PctPoints(db), report.PctPoints(tk))
		nls = append(nls, nl)
		dbs = append(dbs, db)
		tks = append(tks, tk)
	}
	t.AddRow("[mean]", report.PctPoints(stats.Mean(nls)), report.PctPoints(stats.Mean(dbs)), report.PctPoints(stats.Mean(tks)))
	t.AddNote("next-line keeps up on pure streams but has no answer for chases (ammp/mcf) — address correlation is what the table buys")
	return []*report.Table{t}
}
