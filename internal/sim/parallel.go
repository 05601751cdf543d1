package sim

import (
	"sort"
	"sync"

	"timekeeping/internal/core"
	"timekeeping/internal/sample"
	"timekeeping/internal/victim"
)

// This file supplies the sim-side plumbing for segment-parallel sampling
// (sample.Policy.SegmentWindows > 0), for either engine: building each
// segment a fresh, isolated simulation instance, handing it a finished
// segment's growable hash tables on the batched engine, and pooling
// per-segment mechanism outputs in fixed segment order so the result is
// independent of worker scheduling. The run builds no machine of its own,
// and the sample package forks the reference stream itself.

// segmentState is a segmented run's shared state: each finished
// segment's outputs, kept as concurrent workers complete them and pooled
// afterwards, and the finished rigs whose tables the next forks take
// over.
type segmentState struct {
	// fork builds a segment's rig: a new machine with new mechanisms
	// attached, since every segment re-warms from cold.
	fork func() *rig

	mu   sync.Mutex
	byID map[int]outputs
	// spare holds finished rigs not yet taken from: at most Parallelism,
	// since each waits only for the next fork.
	spare []*rig
}

// newInstance is the sample.Config.NewInstance hook. It builds segment
// seg's rig and, when a finished rig is spare, hands it that rig's
// tables, so a run grows its tables once per worker, not once per
// segment. Which spare a fork gets depends on completion order; the
// tables are cleared, so no result does. Once the segment finishes, only
// its outputs and, for the next fork, its rig are kept.
func (s *segmentState) newInstance(seg int) (sample.Instance, error) {
	r := s.fork()
	if donor := s.popSpare(); donor != nil {
		r.takeTables(donor)
	}
	inst := sample.Instance{
		Machine: r.m,
		Finish:  func() { s.finish(seg, r) },
	}
	if r.tracker != nil {
		inst.Warmables = []sample.Warmable{r.tracker}
	}
	return inst, nil
}

// popSpare removes and returns a finished rig, or nil when none is spare.
func (s *segmentState) popSpare() *rig {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.spare)
	if n == 0 {
		return nil
	}
	r := s.spare[n-1]
	s.spare[n-1] = nil
	s.spare = s.spare[:n-1]
	return r
}

// finish keeps a finished segment's outputs, and its rig for the next
// fork to take tables from.
func (s *segmentState) finish(seg int, r *rig) {
	o := r.outputs()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byID[seg] = o
	s.spare = append(s.spare, r)
}

// report pools the per-segment outputs into res in ascending segment
// order — like the estimate itself, the pooled tallies are a pure
// function of the schedule, never of completion order.
func (s *segmentState) report(res *Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]int, 0, len(s.byID))
	for id := range s.byID {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	var agg outputs
	for i, id := range ids {
		o := s.byID[id]
		if o.victim != nil {
			if agg.victim == nil {
				agg.victim = &victim.Stats{}
			}
			agg.victim.Offered += o.victim.Offered
			agg.victim.Admitted += o.victim.Admitted
			agg.victim.Lookups += o.victim.Lookups
			agg.victim.Hits += o.victim.Hits
		}
		if o.tracker != nil {
			if agg.tracker == nil {
				agg.tracker = core.NewMetrics()
			}
			agg.tracker.Merge(o.tracker)
		}
		if o.dec != nil {
			if agg.dec == nil {
				agg.dec = o.dec
			} else {
				agg.dec.Merge(o.dec)
			}
		}
		if i == 0 {
			agg.pfs = o.pfs
			continue
		}
		switch {
		case agg.pfs.tk != nil:
			agg.pfs.tk.MergeStats(o.pfs.tk)
		case agg.pfs.dbcp != nil:
			agg.pfs.dbcp.MergeStats(o.pfs.dbcp)
		case agg.pfs.nl != nil:
			agg.pfs.nl.MergeStats(o.pfs.nl)
		}
	}
	agg.report(res)
}
