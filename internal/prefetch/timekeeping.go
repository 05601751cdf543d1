package prefetch

import (
	"timekeeping/internal/cache"
	"timekeeping/internal/core"
	"timekeeping/internal/hier"
	"timekeeping/internal/stats"
)

// Config sizes the prefetch machinery shared by both prefetchers.
type Config struct {
	// QueueEntries is the prefetch request queue depth (Table 1: 128).
	QueueEntries int
	// LiveTimeScale schedules the prefetch at Scale x predicted live time
	// after the generation start (the paper uses 2).
	LiveTimeScale uint64
	// TickShift is the log2 of the global tick that decrements the
	// per-frame prefetch counters: fire times round up to the next tick
	// boundary, because the paper's counters are "ticked periodically
	// (but not necessarily every cycle) from the global cycle counter".
	// The coarseness is load-bearing: it keeps a zero-live-time
	// prediction from firing while the resident block's last few
	// accesses are still in flight.
	TickShift uint
}

// DefaultConfig returns the Table 1 prefetcher parameters.
func DefaultConfig() Config {
	return Config{QueueEntries: 128, LiveTimeScale: core.LiveTimeScale, TickShift: 7}
}

// tickUp rounds t up to the next tick boundary.
func (c Config) tickUp(t uint64) uint64 {
	period := uint64(1) << c.TickShift
	return (t/period + 1) * period
}

// tkSet holds the per-set miss history. The paper: "the issue is
// complicated somewhat in set-associative caches where we use per set miss
// trace history but we still perform all timekeeping and accounting on a
// per frame basis" — so history lives here, one per cache set, while the
// counters live in tkFrame, one per frame. For a direct-mapped L1 the two
// coincide.
type tkSet struct {
	histPrev, histCur uint64 // per-set miss (or pseudo-miss) tag history
	histLen           int
}

// tkFrame is the per-frame hardware of Figure 18: the generation/live-time
// counters and the state needed to keep training when prefetches turn
// would-be misses into hits.
type tkFrame struct {
	genStart uint64
	lastHit  uint64
	hits     uint64

	// When a prefetch fill displaces the current block, its live time is
	// latched here so the predictor update at the next (pseudo-)miss uses
	// the right value.
	displacedLT    uint64
	displacedValid bool

	// prefetched marks the resident block as prefetch-installed and not
	// yet demanded; the first demand touch is treated as a pseudo-miss
	// for history purposes so chains of prefetches keep training.
	prefetched      bool
	prefetchedBlock uint64
}

// Timekeeping is the paper's prefetcher: on every (pseudo-)miss it updates
// the correlation table with the previous history and looks up the new
// history to obtain the next block and the resident's predicted live time;
// the prefetch fires at 2x that live time after the generation start.
// It implements hier.Prefetcher.
type Timekeeping struct {
	cfg    Config
	table  *core.CorrTable
	split  addrSplit
	frames []tkFrame
	sets   []tkSet
	eng    *engine
}

// NewTimekeeping builds the prefetcher over the hierarchy's L1 geometry
// and a correlation table (use core.DefaultCorrConfig for the paper's 8 KB
// table).
func NewTimekeeping(cfg Config, table *core.CorrTable, l1 L1View) *Timekeeping {
	if cfg.QueueEntries < 1 {
		panic("prefetch: queue must have >= 1 entry")
	}
	if cfg.LiveTimeScale == 0 {
		panic("prefetch: live-time scale must be >= 1")
	}
	split := newAddrSplit(l1.Config())
	return &Timekeeping{
		cfg:    cfg,
		table:  table,
		split:  split,
		frames: make([]tkFrame, split.frames),
		sets:   make([]tkSet, l1.Config().Sets()),
		eng:    newEngine(split.frames, cfg.QueueEntries),
	}
}

// Table returns the correlation table (for reporting).
func (p *Timekeeping) Table() *core.CorrTable { return p.table }

// OnAccess implements hier.Observer: it maintains the per-frame counters
// and drives predictor update + access at generation boundaries.
func (p *Timekeeping) OnAccess(ev *hier.AccessEvent) {
	f := &p.frames[ev.Frame]
	set := p.split.set(ev.Addr)
	tag := p.split.tag(ev.Addr)

	if ev.Hit {
		if f.prefetched && ev.Block == f.prefetchedBlock {
			// First demand touch of a prefetched block: the prefetch was
			// timely and this is the pseudo-miss that continues the
			// training chain.
			p.eng.onFrameHit(ev.Frame, ev.Block)
			f.prefetched = false
			p.missLike(f, ev, set, tag)
			return
		}
		f.hits++
		if ev.Now > f.lastHit {
			f.lastHit = ev.Now
		}
		return
	}

	// A demand miss: classify the outstanding prediction, then train.
	p.eng.onFrameMiss(ev.Frame, ev.Block)
	f.prefetched = false
	p.missLike(f, ev, set, tag)
}

// missLike performs the Figure 18 update/access pair for a generation
// boundary at the frame (a demand miss or the first touch of a prefetched
// block). History is read and written per set; timekeeping per frame.
func (p *Timekeeping) missLike(f *tkFrame, ev *hier.AccessEvent, set, tag uint64) {
	sh := &p.sets[set]

	// Live time of the block whose generation just ended.
	lt := uint64(0)
	if f.displacedValid {
		lt = f.displacedLT
	} else if f.hits > 0 && f.lastHit > f.genStart {
		lt = f.lastHit - f.genStart
	}
	f.displacedValid = false

	// Predictor update with history (D, A) -> (B, lt(A)).
	if sh.histLen == 2 {
		p.table.Update(sh.histPrev, sh.histCur, set, tag, lt)
	}
	// Shift history: (A, B).
	sh.histPrev, sh.histCur = sh.histCur, tag
	if sh.histLen < 2 {
		sh.histLen++
	}

	// Predictor access with (A, B): prediction for C and lt(B).
	if sh.histLen == 2 {
		if nextTag, ltB, ok := p.table.Lookup(sh.histPrev, sh.histCur, set); ok && nextTag != tag {
			target := p.split.blockOf(nextTag, set)
			fireAt := p.cfg.tickUp(ev.Now + p.cfg.LiveTimeScale*ltB)
			p.eng.schedule(ev.Frame, target, ev.Block, fireAt)
		}
	}

	// New generation begins.
	f.genStart = ev.Now
	f.lastHit = ev.Now
	f.hits = 0
}

// Due implements hier.Prefetcher.
func (p *Timekeeping) Due(now uint64, max int) []hier.PrefetchRequest { return p.eng.due(now, max) }

// Filled implements hier.Prefetcher: latch the displaced block's live time
// and mark the frame's resident as prefetched.
func (p *Timekeeping) Filled(req hier.PrefetchRequest, at uint64, frame int, victim cache.Victim) {
	live := p.eng.filled(req)
	f := &p.frames[frame]
	if victim.Valid {
		lt := uint64(0)
		if f.hits > 0 && f.lastHit > f.genStart {
			lt = f.lastHit - f.genStart
		}
		f.displacedLT = lt
		f.displacedValid = true
	}
	if live {
		f.prefetched = true
		f.prefetchedBlock = req.Block
	}
}

// Timeliness returns the Figure 21 classification tallies.
func (p *Timekeeping) Timeliness() Timeliness { return p.eng.timeliness }

// AddressTally returns the per-prediction address accuracy tally (Figure
// 20's accuracy bar); coverage is the correlation table's hit rate.
func (p *Timekeeping) AddressTally() stats.BinaryPredictionTally { return p.eng.addr }

// Coverage returns the predictor hit rate (Figure 20's coverage bar).
func (p *Timekeeping) Coverage() float64 { return p.table.HitRate() }

// Issued returns the number of prefetches handed to the hierarchy.
func (p *Timekeeping) Issued() uint64 { return p.eng.issued }

// Scheduled returns the number of predictions armed.
func (p *Timekeeping) Scheduled() uint64 { return p.eng.scheduled }

// ResetStats clears tallies (training state is preserved).
func (p *Timekeeping) ResetStats() {
	p.eng.resetStats()
	p.table.ResetStats()
}

// MergeStats folds another instance's tallies into p (pooling disjoint
// runs); training state on both sides is untouched.
func (p *Timekeeping) MergeStats(o *Timekeeping) {
	p.eng.mergeStats(o.eng)
	p.table.MergeStats(o.table)
}
