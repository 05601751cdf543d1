package sim

import (
	"sort"
	"sync"

	"timekeeping/internal/core"
	"timekeeping/internal/sample"
	"timekeeping/internal/trace"
	"timekeeping/internal/victim"
)

// This file supplies the sim-side plumbing for segment-parallel sampling
// (sample.Policy.SegmentWindows > 0), for either engine: forking the
// reference stream at segment boundaries, building isolated simulation
// instances from a cold prototype, and pooling per-segment mechanism
// outputs in fixed segment order so the result is independent of worker
// scheduling.

// segmentStream returns the sample.Config.SegmentStream hook: re-derive
// the stream from its origin, apply the same stream-level filtering the
// run uses, then skip to the segment's fork offset. Offsets are counted
// in post-filter references, so replaying the filter from scratch
// reproduces its carry state deterministically.
func segmentStream(factory func() (trace.Stream, error), opt Options) func(offset uint64) (trace.Stream, error) {
	return func(offset uint64) (trace.Stream, error) {
		st, err := factory()
		if err != nil {
			return nil, err
		}
		if opt.DropSWPrefetch {
			st = &trace.DropSWPrefetch{S: st}
		}
		var r trace.Ref
		for skipped := uint64(0); skipped < offset; skipped++ {
			if !st.Next(&r) {
				// The fork sits past the stream's end: the segment has
				// nothing to replay (zero windows, not an error).
				return &trace.SliceStream{}, nil
			}
		}
		return st, nil
	}
}

// segmentOutputs collects each finished segment's outputs as concurrent
// workers complete them, and pools them afterwards.
type segmentOutputs struct {
	mu   sync.Mutex
	byID map[int]outputs
}

func (s *segmentOutputs) put(seg int, o outputs) {
	s.mu.Lock()
	s.byID[seg] = o
	s.mu.Unlock()
}

// newInstance returns the sample.Config.NewInstance hook: fork a segment
// instance off the cold prototype (fork clones its machine and attaches
// fresh mechanisms — a cold fresh mechanism is identical to a cold clone,
// and fresh construction avoids aliasing mechanism state across
// instances), and once the segment finishes keep only its outputs. A
// finished segment's tables — the tracker's block history above all —
// would otherwise stay live until every segment is done.
func (s *segmentOutputs) newInstance(fork func() (*rig, error)) func(seg int) (sample.Instance, error) {
	return func(seg int) (sample.Instance, error) {
		r, err := fork()
		if err != nil {
			return sample.Instance{}, err
		}
		inst := sample.Instance{
			Machine: r.m,
			Finish:  func() { s.put(seg, r.outputs()) },
		}
		if r.tracker != nil {
			inst.Warmables = []sample.Warmable{r.tracker}
		}
		return inst, nil
	}
}

// report pools the per-segment outputs into res in ascending segment
// order — like the estimate itself, the pooled tallies are a pure
// function of the schedule, never of completion order.
func (s *segmentOutputs) report(res *Result) {
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
