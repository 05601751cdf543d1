// The Auditor replays every functional-contents mutation of the engine's
// memory system through the oracle in lockstep and fails fast — at the exact
// reference — on any divergence: hit/miss classification, eviction choice
// (address and dirty bit, both levels), cold-miss classification, the
// miss-path gating rules, and the timekeeping invariants kept by the
// Bookkeeper. After the run, Finish cross-checks the accumulated state
// against the real tracker's histograms and the decay simulator's induced
// miss counts.
package oracle

import (
	"fmt"

	"timekeeping/internal/cache"
	"timekeeping/internal/classify"
	"timekeeping/internal/core"
	"timekeeping/internal/decay"
	"timekeeping/internal/hier"
)

// Divergence is a disagreement between the timing model and the oracle.
// The Auditor panics with one (the engine has no error path mid-access);
// sim recovers it into an ordinary error.
type Divergence struct {
	Check  string // which comparison failed
	Ref    uint64 // 1-based demand-reference ordinal (0 for post-run checks)
	Now    uint64 // issue cycle of the diverging event
	Block  uint64 // block address involved
	Detail string
}

// Error implements the error interface.
func (d *Divergence) Error() string {
	if d.Ref == 0 {
		return fmt.Sprintf("oracle divergence [%s]: %s", d.Check, d.Detail)
	}
	return fmt.Sprintf("oracle divergence [%s] at ref %d (cycle %d, block %#x): %s",
		d.Check, d.Ref, d.Now, d.Block, d.Detail)
}

// Config selects what the Auditor models and which post-run cross-checks
// are valid for the run.
type Config struct {
	L1        cache.Config
	L2        cache.Config
	PerfectL1 bool

	// DecayIntervals mirrors the run's decay.Sim intervals (nil when no
	// decay evaluation is attached).
	DecayIntervals []uint64

	// CompareTracker enables the post-run histogram comparison against
	// core.Tracker. Only valid when a tracker is attached and no
	// prefetcher runs (the tracker does not observe prefetch fills).
	CompareTracker bool
	// CompareDecay enables the post-run induced-miss comparison against
	// decay.Sim, under the same no-prefetcher condition.
	CompareDecay bool
}

// Summary is what an audited run reports back (attached to sim.Result).
type Summary struct {
	Refs          uint64 // demand references audited
	PrefetchFills uint64 // prefetch installs replayed
	Generations   uint64 // block generations closed over the whole run
	Skews         uint64 // raw-timestamp inversions absorbed by the invariant clock
	// DemandDigest is an order-sensitive FNV-1a digest of every demand
	// reference's (block, hit) outcome in a demand-only oracle L1 that
	// never sees prefetch fills: runs over the same reference stream must
	// produce the same digest whatever the prefetcher does, because
	// prefetching must not change the demand stream itself.
	DemandDigest uint64
}

// Auditor implements hier.Auditor over the functional oracle. Construct
// with NewAuditor and attach with (*engine.Engine).SetAuditor; sim does
// both for every audited run, so the oracle checks the engine every run
// takes.
type Auditor struct {
	cfg  Config
	l1   *Cache
	l2   *Cache
	book *Bookkeeper

	// demand is a second L1 model that sees only demand references —
	// prefetch fills are invisible — so its hit/miss sequence is a pure
	// function of the reference stream.
	demand *Cache
	digest uint64

	seen map[uint64]struct{} // blocks ever demand-referenced (cold check)

	decayLast  map[uint64]uint64 // per-block last demand issue time
	decayExtra []uint64          // induced misses per DecayIntervals entry

	refs  uint64
	fills uint64
	now   uint64 // issue time of the event being audited
}

// NewAuditor builds the oracle state for one run.
func NewAuditor(cfg Config) *Auditor {
	a := &Auditor{
		cfg:        cfg,
		l1:         NewCache(cfg.L1),
		l2:         NewCache(cfg.L2),
		demand:     NewCache(cfg.L1),
		digest:     fnvOffset,
		seen:       make(map[uint64]struct{}),
		decayLast:  make(map[uint64]uint64),
		decayExtra: make([]uint64, len(cfg.DecayIntervals)),
	}
	a.book = NewBookkeeper(func(check string, block uint64, format string, args ...any) {
		panic(&Divergence{Check: check, Ref: a.refs, Now: a.now, Block: block,
			Detail: fmt.Sprintf(format, args...)})
	})
	return a
}

func (a *Auditor) failf(check string, block uint64, format string, args ...any) {
	panic(&Divergence{Check: check, Ref: a.refs, Now: a.now, Block: block,
		Detail: fmt.Sprintf(format, args...)})
}

// ResetStats is the warm-up boundary hook: it clears the bookkeeper's
// mirror metrics (in step with core.Tracker.Reset) and keeps all contents
// state.
func (a *Auditor) ResetStats() { a.book.ResetStats() }

// Summary reports the audited run's totals.
func (a *Auditor) Summary() *Summary {
	return &Summary{
		Refs:          a.refs,
		PrefetchFills: a.fills,
		Generations:   a.book.TotalGenerations(),
		Skews:         a.book.Skews(),
		DemandDigest:  a.digest,
	}
}

// AuditDemand implements hier.Auditor for demand references.
func (a *Auditor) AuditDemand(ev *hier.AccessEvent, l2 *hier.L2Op) {
	a.refs++
	a.now = ev.Now
	block := ev.Block

	// Demand-only model: digest the outcome stream.
	dHit, _ := a.demand.Access(ev.Addr, ev.Write)
	a.digest = fnvMix(a.digest, block, dHit)

	// Main L1 in lockstep: classification and eviction choice.
	hit, vic := a.l1.Access(ev.Addr, ev.Write)
	if hit != ev.Hit {
		a.failf("hit/miss", block, "timing model says hit=%v, oracle says hit=%v", ev.Hit, hit)
	}
	if hit {
		if ev.MissKind != classify.Hit {
			a.failf("classify", block, "hit carries miss kind %v", ev.MissKind)
		}
	} else {
		if vic != (Evicted{Valid: ev.Victim.Valid, Addr: ev.Victim.Addr, Dirty: ev.Victim.Dirty}) {
			a.failf("eviction", block, "timing model evicts %+v, oracle evicts %+v", ev.Victim, vic)
		}
		_, seen := a.seen[block]
		if cold := ev.MissKind == classify.Cold; cold == seen {
			a.failf("cold", block, "miss kind %v but block seen before = %v", ev.MissKind, seen)
		}
	}
	a.seen[block] = struct{}{}

	// L2 mirroring and miss-path gating: every real miss must either take
	// the L2 round trip, hit the victim buffer, or use the PerfectL1
	// shortcut (non-cold misses only).
	if l2 != nil {
		if ev.Hit {
			a.failf("l2", block, "L1 hit performed an L2 access")
		}
		if l2.Block != block || l2.Fill {
			a.failf("l2", block, "demand miss performed L2 op %+v", l2)
		}
		l2Hit, l2Vic := a.l2.Access(l2.Block, l2.Write)
		a.checkL2(l2, l2Hit, l2Vic)
	} else if !ev.Hit && !ev.VictimHit && !(a.cfg.PerfectL1 && ev.MissKind != classify.Cold) {
		a.failf("l2", block, "miss skipped the L2 with no victim hit or PerfectL1 shortcut")
	}

	// Timekeeping bookkeeping.
	if ev.Hit {
		a.book.OnHit(ev.Now, block)
	} else {
		a.book.OnMiss(ev.Now, block, ev.MissKind, vic)
	}

	// Decay mirror: block-keyed idle periods, same arithmetic as
	// decay.Sim's frame-keyed ones (equivalent while no prefetcher
	// changes frame contents behind the observer's back).
	if len(a.cfg.DecayIntervals) > 0 {
		if last, ok := a.decayLast[block]; ok && ev.Now > last {
			idle := ev.Now - last
			for i, iv := range a.cfg.DecayIntervals {
				if idle > iv && ev.Hit {
					// The line had decayed under this interval but the
					// program wanted the data: an induced miss. Hits with
					// idle <= iv must never be charged — that would be
					// decay evicting a line the oracle says is still live.
					a.decayExtra[i]++
				}
			}
		}
		a.decayLast[block] = ev.Now
	}
}

// AuditPrefetchIssue implements hier.Auditor for a prefetch's L2 fill at
// issue time.
func (a *Auditor) AuditPrefetchIssue(now uint64, l2 *hier.L2Op) {
	a.now = now
	if !l2.Fill || l2.Write {
		a.failf("l2", l2.Block, "prefetch issue performed L2 op %+v", l2)
	}
	l2Hit, l2Vic := a.l2.Fill(l2.Block)
	a.checkL2(l2, l2Hit, l2Vic)
}

// checkL2 compares the timing model's L2 outcome with the oracle's.
func (a *Auditor) checkL2(op *hier.L2Op, hit bool, vic Evicted) {
	if hit != op.Hit {
		a.failf("l2 hit/miss", op.Block, "timing model says hit=%v, oracle says hit=%v", op.Hit, hit)
	}
	if vic != (Evicted{Valid: op.Victim.Valid, Addr: op.Victim.Addr, Dirty: op.Victim.Dirty}) {
		a.failf("l2 eviction", op.Block, "timing model evicts %+v, oracle evicts %+v", op.Victim, vic)
	}
}

// AuditPrefetchFill implements hier.Auditor for a prefetch arriving in L1.
func (a *Auditor) AuditPrefetchFill(at, block uint64, installed bool, victim cache.Victim) {
	a.now = at
	a.fills++
	hit, vic := a.l1.Fill(block)
	if installed == hit {
		a.failf("fill", block, "timing model installed=%v, oracle resident=%v", installed, hit)
	}
	if vic != (Evicted{Valid: victim.Valid, Addr: victim.Addr, Dirty: victim.Dirty}) {
		a.failf("eviction", block, "prefetch fill: timing model evicts %+v, oracle evicts %+v", victim, vic)
	}
	if installed {
		a.book.OnFill(at, block, vic)
	}
}

// Finish runs the post-run cross-checks. tracker and decayResults may be
// nil/empty when the corresponding attachment was not configured.
func (a *Auditor) Finish(tracker *core.Metrics, decayResults []decay.Result) error {
	if a.cfg.CompareTracker && tracker != nil {
		if err := a.book.CompareTracker(tracker); err != nil {
			return err
		}
	}
	if len(decayResults) > 0 {
		// Fewer induced misses at longer intervals, always: decay only
		// ever turns lines off later.
		for i := range decayResults {
			for j := range decayResults {
				if decayResults[i].Interval < decayResults[j].Interval &&
					decayResults[i].ExtraMisses < decayResults[j].ExtraMisses {
					return &Divergence{Check: "decay", Detail: fmt.Sprintf(
						"interval %d induced %d misses but longer interval %d induced %d",
						decayResults[i].Interval, decayResults[i].ExtraMisses,
						decayResults[j].Interval, decayResults[j].ExtraMisses)}
				}
			}
		}
	}
	if a.cfg.CompareDecay && len(decayResults) == len(a.cfg.DecayIntervals) {
		for i, r := range decayResults {
			if r.ExtraMisses != a.decayExtra[i] {
				return &Divergence{Check: "decay", Detail: fmt.Sprintf(
					"interval %d: decay model induced %d misses, oracle %d",
					r.Interval, r.ExtraMisses, a.decayExtra[i])}
			}
		}
	}
	return nil
}

// FNV-1a 64-bit, mixing a block address and a hit bit per reference.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h, block uint64, hit bool) uint64 {
	for i := 0; i < 64; i += 8 {
		h ^= (block >> i) & 0xff
		h *= fnvPrime
	}
	if hit {
		h ^= 1
	} else {
		h ^= 2
	}
	h *= fnvPrime
	return h
}
