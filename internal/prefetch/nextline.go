package prefetch

import (
	"timekeeping/internal/cache"
	"timekeeping/internal/hier"
)

// NextLine is a tagged sequential (next-line) prefetcher — the classic
// time-independent baseline (Smith's "Cache memories", which the paper
// groups with the event-ordering approaches it argues against). On a miss
// to block B it prefetches B+1; on the first demand touch of a
// prefetched block it prefetches the following line, so a consumed
// sequential stream keeps running ahead.
//
// It is included as an extension beyond the paper's own comparison to
// show what the timekeeping machinery buys over the cheapest possible
// prefetcher: next-line matches it on pure sequential streams but has no
// answer for pointer chases, strided scans, or conflict traffic, and it
// never knows *when* to prefetch (it always fires immediately).
type NextLine struct {
	cfg        Config
	l1         L1View
	split      addrSplit
	eng        *engine
	prefetched map[uint64]bool // blocks installed by prefetch, not yet touched
}

// NewNextLine builds a tagged next-line prefetcher.
func NewNextLine(cfg Config, l1 L1View) *NextLine {
	if cfg.QueueEntries < 1 {
		panic("prefetch: queue must have >= 1 entry")
	}
	split := newAddrSplit(l1.Config())
	return &NextLine{
		cfg:        cfg,
		l1:         l1,
		split:      split,
		eng:        newEngine(split.frames, cfg.QueueEntries),
		prefetched: make(map[uint64]bool),
	}
}

// OnAccess implements hier.Observer.
func (p *NextLine) OnAccess(ev *hier.AccessEvent) {
	next := ev.Block + 1<<p.split.blockShift
	if ev.Hit {
		p.eng.onFrameHit(ev.Frame, ev.Block)
		// Tagged: only the first touch of a prefetched block re-arms.
		if p.prefetched[ev.Block] {
			delete(p.prefetched, ev.Block)
			p.arm(next, ev.Now)
		}
		return
	}
	p.eng.onFrameMiss(ev.Frame, ev.Block)
	delete(p.prefetched, ev.Block)
	p.arm(next, ev.Now)
}

// arm schedules an immediate prefetch of the block (into its own frame).
// Unlike the timekeeping prefetcher there is no dead-point estimate to
// wait for: classic next-line fires right away, which is also its
// weakness — it can displace a live block in the target frame.
func (p *NextLine) arm(block, now uint64) {
	frame := int(p.split.set(block)) * p.split.ways // way 0 of the block's set
	resident, _ := p.l1.FrameAddr(frame)
	p.eng.schedule(frame, block, resident, now)
}

// Due implements hier.Prefetcher.
func (p *NextLine) Due(now uint64, max int) []hier.PrefetchRequest { return p.eng.due(now, max) }

// Filled implements hier.Prefetcher.
func (p *NextLine) Filled(req hier.PrefetchRequest, at uint64, frame int, victim cache.Victim) {
	if p.eng.filled(req) {
		p.prefetched[req.Block] = true
	}
	// Bound the tag set: it only needs to cover resident blocks.
	if len(p.prefetched) > p.split.frames {
		for b := range p.prefetched {
			if _, hit := p.l1.Probe(b); !hit {
				delete(p.prefetched, b)
			}
		}
	}
}

// Timeliness returns the classification tallies.
func (p *NextLine) Timeliness() Timeliness { return p.eng.timeliness }

// Issued returns the number of prefetches handed to the hierarchy.
func (p *NextLine) Issued() uint64 { return p.eng.issued }

// ResetStats clears tallies.
func (p *NextLine) ResetStats() { p.eng.resetStats() }

// MergeStats folds another instance's tallies into p (pooling disjoint
// runs); training state on both sides is untouched.
func (p *NextLine) MergeStats(o *NextLine) { p.eng.mergeStats(o.eng) }
