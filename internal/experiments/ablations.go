package experiments

import (
	"fmt"

	"timekeeping/internal/core"
	"timekeeping/internal/report"
	"timekeeping/internal/sim"
)

// This file holds the ablations DESIGN.md calls out — sweeps over the
// design choices the paper fixes by argument rather than experiment.

// ablationBenches is a representative subset: a table-friendly chase
// (ammp), a table-hostile chase (mcf), a regular stream (swim) and a
// conflict program (twolf).
var ablationBenches = []string{"ammp", "mcf", "swim", "twolf"}

// AblateTableSize sweeps the timekeeping correlation-table size from 2 KB
// to 2 MB — the paper's "we have tested several sizes of this table
// ranging from megabytes to just a few kilobytes".
func AblateTableSize(r *Runner) []*report.Table {
	t := &report.Table{
		Title:   "Ablation: correlation table size vs prefetch IPC gain",
		Columns: []string{"bench", "2KB", "8KB (paper)", "64KB", "2MB"},
	}
	sizes := []struct {
		label string
		cfg   core.CorrConfig
	}{
		{"2KB", core.CorrConfig{TagSumBits: 5, IndexBits: 1, Ways: 8, IDBits: 16, LiveShift: 4, LiveBits: 16}},
		{"8KB", core.DefaultCorrConfig()},
		{"64KB", core.CorrConfig{TagSumBits: 10, IndexBits: 1, Ways: 8, IDBits: 16, LiveShift: 4, LiveBits: 16}},
		{"2MB", core.CorrConfig{TagSumBits: 15, IndexBits: 1, Ways: 8, IDBits: 16, LiveShift: 4, LiveBits: 16}},
	}
	for _, b := range benchSubset(r, ablationBenches) {
		base := r.get(cfgBase, b)
		row := []string{b}
		for _, sz := range sizes {
			res := r.point("ablate-table-"+sz.label, b, func(o *sim.Options) { o.Prefetcher, o.Corr = sim.PrefetchTK, sz.cfg })
			row = append(row, report.PctPoints(sim.Improvement(res, base)))
		}
		t.AddRow(row...)
	}
	t.AddNote("mcf needs the multi-megabyte end; constructive aliasing carries the rest at 8KB (paper Section 5.2.1)")
	return []*report.Table{t}
}

// AblateIndexSplit holds the table size fixed (2048 entries) and varies
// the (m, n) index split between tag-sum bits and cache-index bits — the
// paper's constructive-aliasing design point ("an interesting observation
// arises when we index this table using mainly tag information and only
// partial index information"). More index bits separate frames (less
// sharing); more tag-sum bits alias frames together (more sharing).
func AblateIndexSplit(r *Runner) []*report.Table {
	t := &report.Table{
		Title:   "Ablation: correlation-table index split (m tag-sum bits / n index bits, 2048 entries)",
		Columns: []string{"bench", "m=8,n=0", "m=7,n=1 (paper)", "m=4,n=4", "m=0,n=8"},
	}
	splits := []core.CorrConfig{
		{TagSumBits: 8, IndexBits: 0, Ways: 8, IDBits: 16, LiveShift: 4, LiveBits: 16},
		core.DefaultCorrConfig(),
		{TagSumBits: 4, IndexBits: 4, Ways: 8, IDBits: 16, LiveShift: 4, LiveBits: 16},
		{TagSumBits: 0, IndexBits: 8, Ways: 8, IDBits: 16, LiveShift: 4, LiveBits: 16},
	}
	for _, b := range benchSubset(r, ablationBenches) {
		base := r.get(cfgBase, b)
		row := []string{b}
		for _, cfg := range splits {
			label := fmt.Sprintf("ablate-mn-%d-%d", cfg.TagSumBits, cfg.IndexBits)
			res := r.point(label, b, func(o *sim.Options) { o.Prefetcher, o.Corr = sim.PrefetchTK, cfg })
			row = append(row, report.PctPoints(sim.Improvement(res, base)))
		}
		t.AddRow(row...)
	}
	t.AddNote("tag-heavy indexing lets similar traversals share entries; index-heavy splits waste capacity on duplicates")
	return []*report.Table{t}
}

// AblateVictimThreshold sweeps the dead-time admission threshold around
// the paper's 1K-cycle operating point — its Little's-law argument says
// the threshold should keep the candidate set near the victim cache size.
func AblateVictimThreshold(r *Runner) []*report.Table {
	t := &report.Table{
		Title:   "Ablation: victim-filter dead-time threshold",
		Columns: []string{"bench", "256cyc", "1K (paper)", "4K", "16K", "unfiltered"},
	}
	for _, b := range benchSubset(r, []string{"twolf", "vpr", "crafty", "swim"}) {
		base := r.get(cfgBase, b)
		row := []string{b}
		for _, th := range []uint64{256, 1024, 4096, 16384, 0} {
			res := r.point(fmt.Sprintf("ablate-victim-%d", th), b, func(o *sim.Options) {
				if th == 0 {
					o.VictimFilter = sim.VictimNone
				} else {
					o.VictimFilter = sim.VictimDecay
					o.VictimDecayThreshold = th
				}
			})
			row = append(row, fmt.Sprintf("%s/%0.3f",
				report.PctPoints(sim.Improvement(res, base)), res.VictimFillPerCycle()))
		}
		t.AddRow(row...)
	}
	t.AddNote("cells are IPC-gain / fill-traffic-per-cycle; larger thresholds buy little IPC for much more traffic")
	return []*report.Table{t}
}

// AblateLiveScale sweeps the dead-point safety factor around the paper's
// "twice its previous live time".
func AblateLiveScale(r *Runner) []*report.Table {
	t := &report.Table{
		Title:   "Ablation: live-time scale (prefetch at Scale x predicted live time)",
		Columns: []string{"bench", "1x", "2x (paper)", "3x", "4x"},
	}
	for _, b := range benchSubset(r, ablationBenches) {
		base := r.get(cfgBase, b)
		row := []string{b}
		for _, scale := range []uint64{1, 2, 3, 4} {
			res := r.point(fmt.Sprintf("ablate-scale-%d", scale), b, func(o *sim.Options) { o.Prefetcher, o.LiveTimeScale = sim.PrefetchTK, scale })
			row = append(row, report.PctPoints(sim.Improvement(res, base)))
		}
		t.AddRow(row...)
	}
	t.AddNote("1x risks displacing still-live blocks; beyond 2x prefetches drift late (paper Section 5.1.2)")
	return []*report.Table{t}
}

// AblateLiveTimeResolution sweeps the correlation table's live-time
// counter coarseness (the global-tick resolution of the stored counters).
func AblateLiveTimeResolution(r *Runner) []*report.Table {
	t := &report.Table{
		Title:   "Ablation: stored live-time resolution (2^shift cycles per tick)",
		Columns: []string{"bench", "1cyc", "16cyc (paper)", "256cyc", "4Kcyc"},
	}
	for _, b := range benchSubset(r, ablationBenches) {
		base := r.get(cfgBase, b)
		row := []string{b}
		for _, shift := range []uint{0, 4, 8, 12} {
			res := r.point(fmt.Sprintf("ablate-ltres-%d", shift), b, func(o *sim.Options) {
				o.Prefetcher = sim.PrefetchTK
				o.Corr = core.DefaultCorrConfig()
				o.Corr.LiveShift = shift
			})
			row = append(row, report.PctPoints(sim.Improvement(res, base)))
		}
		t.AddRow(row...)
	}
	t.AddNote("coarse counters are nearly free until the tick dwarfs typical live times")
	return []*report.Table{t}
}

// AblateDropSWPrefetch re-runs the prefetch comparison with compiler
// software prefetches removed from the reference stream — the paper's
// "we also experiment with ignoring all the software prefetches".
func AblateDropSWPrefetch(r *Runner) []*report.Table {
	t := &report.Table{
		Title:   "Ablation: timekeeping prefetch with software prefetches dropped",
		Columns: []string{"bench", "with swpf", "without swpf"},
	}
	for _, b := range benchSubset(r, []string{"swim", "applu", "wupwise"}) {
		withBase := r.get(cfgBase, b)
		with := sim.Improvement(r.get(cfgTK, b), withBase)

		noBase := r.point("ablate-swpf-base", b, func(o *sim.Options) { o.Track, o.DropSWPrefetch = true, true })
		noTK := r.point("ablate-swpf-tk", b, func(o *sim.Options) { o.Prefetcher, o.DropSWPrefetch = sim.PrefetchTK, true })

		t.AddRow(b, report.PctPoints(with), report.PctPoints(sim.Improvement(noTK, noBase)))
	}
	t.AddNote("the paper observed similar results when ignoring compiler-inserted prefetches")
	return []*report.Table{t}
}

// AblateAssociativity varies L1 associativity: a 2-way L1 removes most
// conflict misses (shrinking what the victim cache can add), while the
// timekeeping prefetcher — with its per-set miss history — keeps working
// on the capacity programs.
func AblateAssociativity(r *Runner) []*report.Table {
	t := &report.Table{
		Title:   "Ablation: L1 associativity (base IPC / victim gain / prefetch gain)",
		Columns: []string{"bench", "1-way (paper)", "2-way", "4-way"},
	}
	for _, b := range benchSubset(r, []string{"twolf", "vpr", "ammp", "swim"}) {
		row := []string{b}
		for _, ways := range []int{1, 2, 4} {
			point := func(label string, mutate func(*sim.Options)) sim.Result {
				return r.point(fmt.Sprintf("ablate-assoc-%d-%s", ways, label), b, func(o *sim.Options) {
					o.Hier.L1.Ways = ways
					mutate(o)
				})
			}
			base := point("base", func(*sim.Options) {})
			v := point("vdecay", func(o *sim.Options) { o.VictimFilter = sim.VictimDecay })
			pf := point("tk", func(o *sim.Options) { o.Prefetcher = sim.PrefetchTK })

			row = append(row, fmt.Sprintf("%.2f/%s/%s", base.CPU.IPC,
				report.PctPoints(sim.Improvement(v, base)),
				report.PctPoints(sim.Improvement(pf, base))))
		}
		t.AddRow(row...)
	}
	t.AddNote("associativity absorbs the conflict programs' victim-cache gains; prefetch gains on capacity programs survive")
	return []*report.Table{t}
}

// benchSubset filters wanted benchmarks to those in the Runner's set.
func benchSubset(r *Runner, wanted []string) []string {
	have := make(map[string]bool, len(r.Benches))
	for _, b := range r.Benches {
		have[b] = true
	}
	var out []string
	for _, b := range wanted {
		if have[b] {
			out = append(out, b)
		}
	}
	return out
}
