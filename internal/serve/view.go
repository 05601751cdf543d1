package serve

import (
	"timekeeping/internal/report"
	"timekeeping/internal/sample"
	"timekeeping/internal/sim"
	"timekeeping/pkg/api"
)

// resultView flattens a simulation result into its wire shape.
func resultView(r *sim.Result) *api.ResultView {
	h := r.Hier
	l2Acc := h.L2Hits + h.L2Misses
	v := &api.ResultView{
		Bench:     r.Bench,
		IPC:       r.CPU.IPC,
		Insts:     r.CPU.Insts,
		Cycles:    r.CPU.Cycles,
		Refs:      r.CPU.Refs,
		Loads:     r.CPU.Loads,
		Stores:    r.CPU.Stores,
		TotalRefs: r.TotalRefs,
		L1: api.LevelStats{
			Accesses:   h.Accesses,
			Hits:       h.Hits,
			Misses:     h.Misses,
			Writebacks: h.Writebacks,
			MissRate:   h.MissRate(),
		},
		L2: api.LevelStats{
			Accesses:   l2Acc,
			Hits:       h.L2Hits,
			Misses:     h.L2Misses,
			Writebacks: h.L2Writebacks,
		},
		ColdMisses:       h.ColdMisses,
		ConflictMisses:   h.ConflMiss,
		CapacityMisses:   h.CapMiss,
		VictimHits:       h.VictimHits,
		PrefetchesIssued: h.Prefetches,
		PrefetchesUseful: h.PFUseful,
	}
	if l2Acc > 0 {
		v.L2.MissRate = float64(h.L2Misses) / float64(l2Acc)
	}
	if r.Victim != nil {
		v.Victim = &api.VictimView{
			Offered:      r.Victim.Offered,
			Admitted:     r.Victim.Admitted,
			Lookups:      r.Victim.Lookups,
			Hits:         r.Victim.Hits,
			FillPerCycle: r.VictimFillPerCycle(),
		}
	}
	if r.PFIssued > 0 || r.PFAddrAcc > 0 || r.PFCoverage > 0 {
		v.Prefetch = &api.PrefetchView{
			Issued:       r.PFIssued,
			Useful:       h.PFUseful,
			AddrAccuracy: r.PFAddrAcc,
			Coverage:     r.PFCoverage,
		}
	}
	if e := r.Estimate; e != nil {
		v.Estimate = &api.EstimateView{
			Windows:      e.Windows,
			DetailedRefs: e.DetailedRefs,
			WarmRefs:     e.WarmRefs,
			TargetMet:    e.TargetMet,
			IPC:          statEstimate(e.IPC),
			L1MissRate:   statEstimate(e.L1MissRate),
			L2MissRate:   statEstimate(e.L2MissRate),
		}
		if p := e.Phase; p != nil {
			v.Estimate.Phase = &api.PhaseView{
				Intervals:    p.Intervals,
				IntervalRefs: p.IntervalRefs,
				ProfiledRefs: p.ProfiledRefs,
				K:            p.K,
				Masses:       p.Masses,
				RepWindows:   p.RepWindows,
			}
		}
	}
	if t := r.Tracker; t != nil {
		tv := &api.TrackerView{
			Generations:      t.Generations,
			ZeroLiveAccuracy: t.ZeroLive.Accuracy(),
			ZeroLiveCoverage: t.ZeroLive.Coverage(),
		}
		if t.Live != nil {
			tv.MeanLiveCycles = t.Live.Mean()
		}
		if t.Dead != nil {
			tv.MeanDeadCycles = t.Dead.Mean()
		}
		v.Tracker = tv
	}
	return v
}

// statEstimate converts one sampled statistic to its wire shape.
func statEstimate(s sample.Stat) api.StatEstimate {
	return api.StatEstimate{Mean: s.Mean, StdDev: s.StdDev, CILow: s.CILow, CIHigh: s.CIHigh, N: s.N}
}

// tableViews converts rendered experiment tables to their wire shape.
func tableViews(tables []*report.Table) []api.Table {
	out := make([]api.Table, 0, len(tables))
	for _, t := range tables {
		if t == nil {
			continue
		}
		out = append(out, api.Table{
			Title:   t.Title,
			Columns: t.Columns,
			Rows:    t.Rows,
			Notes:   t.Notes,
		})
	}
	return out
}
