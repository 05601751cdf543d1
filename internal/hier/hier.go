// Package hier composes the Table 1 memory hierarchy — L1 data cache,
// unified L2, the two buses, main memory, and the MSHR files — into one
// MemSystem the CPU model drives. It provides the attachment points the
// paper's mechanisms plug into: observers (the timekeeping tracker),
// a victim buffer (Section 4.2), and a prefetcher (Section 5.2).
//
// Hierarchy is the reference memory system: the executable specification
// that internal/engine transcribes and the tests compare it against,
// generation-event emit sites included. No production run drives it. The
// shared vocabulary — Config, Stats, the attachment interfaces and the
// Auditor hook the engine calls — lives here too.
//
// Timing model of a demand L1 miss:
//
//	issue -> +HitLat (miss detect) -> MSHR allocate -> L1/L2 bus ->
//	+L2Lat -> [L2 miss: L2/mem bus -> +MemLat] -> data back
//
// Functional cache contents update at access time (the standard
// trace-driven split); fills that are logically in flight are tracked by
// the MSHR files and the pending-prefetch list so later references see the
// right timing.
package hier

import (
	"fmt"

	"timekeeping/internal/bus"
	"timekeeping/internal/cache"
	"timekeeping/internal/classify"
	"timekeeping/internal/dram"
	"timekeeping/internal/events"
	"timekeeping/internal/obs"
	"timekeeping/internal/trace"
)

// Process-cumulative observability counters, shared by every Hierarchy in
// the process and rendered by tkserve's /metrics. They aggregate across
// runs (warm-up included): they answer "where is this process spending
// memory-system work", while the per-window Stats answer "what did this
// measurement interval do".
var (
	ctrL1 = cache.Counters{
		Accesses:   obs.Default.Counter("sim_l1_accesses_total"),
		Hits:       obs.Default.Counter("sim_l1_hits_total"),
		Misses:     obs.Default.Counter("sim_l1_misses_total"),
		Writebacks: obs.Default.Counter("sim_l1_writebacks_total"),
	}
	ctrL2 = cache.Counters{
		Accesses:   obs.Default.Counter("sim_l2_accesses_total"),
		Hits:       obs.Default.Counter("sim_l2_hits_total"),
		Misses:     obs.Default.Counter("sim_l2_misses_total"),
		Writebacks: obs.Default.Counter("sim_l2_writebacks_total"),
	}
	ctrPFIssued = obs.Default.Counter("sim_prefetch_issued_total")
	ctrPFUseful = obs.Default.Counter("sim_prefetch_useful_total")
)

// Config describes the hierarchy; DefaultConfig matches Table 1.
type Config struct {
	L1 cache.Config
	L2 cache.Config

	L1HitLat uint64 // L1 load-to-use latency
	L2Lat    uint64 // L2 array access latency
	MemLat   uint64 // main memory latency

	L1L2BusBytes  uint64 // L1/L2 bus width
	L1L2BusRatio  uint64 // CPU cycles per L1/L2 bus cycle
	L2MemBusBytes uint64 // L2/memory bus width
	L2MemBusRatio uint64 // CPU cycles per L2/mem bus cycle

	DemandMSHRs   int
	PrefetchMSHRs int

	// PerfectL1, when set, services every non-cold L1 miss at hit latency
	// — the limit study behind Figure 1 ("if all conflict and capacity
	// misses in L1 data cache could be eliminated").
	PerfectL1 bool
}

// DefaultConfig returns the paper's simulated memory hierarchy (Table 1).
func DefaultConfig() Config {
	return Config{
		L1:            cache.Config{Name: "L1D", Bytes: 32 << 10, BlockBytes: 32, Ways: 1},
		L2:            cache.Config{Name: "L2", Bytes: 1 << 20, BlockBytes: 64, Ways: 4},
		L1HitLat:      2,
		L2Lat:         12,
		MemLat:        70,
		L1L2BusBytes:  32,
		L1L2BusRatio:  1,
		L2MemBusBytes: 64,
		L2MemBusRatio: 5,
		DemandMSHRs:   64,
		PrefetchMSHRs: 32,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.L1.Validate(); err != nil {
		return err
	}
	if err := c.L2.Validate(); err != nil {
		return err
	}
	if c.L1HitLat == 0 || c.L2Lat == 0 || c.MemLat == 0 {
		return fmt.Errorf("hier: latencies must be positive")
	}
	if c.DemandMSHRs < 1 {
		return fmt.Errorf("hier: need at least one demand MSHR")
	}
	if c.L1.BlockBytes > c.L2.BlockBytes {
		return fmt.Errorf("hier: L1 block larger than L2 block")
	}
	return nil
}

// AccessEvent is reported to observers for every demand access to the L1
// data cache, after the access has been performed.
type AccessEvent struct {
	Now   uint64 // issue cycle
	Done  uint64 // cycle data is available
	Addr  uint64 // full byte address
	Block uint64 // L1-block-aligned address
	PC    uint32 // static instruction identity (for PC-based predictors)
	Frame int    // L1 frame holding the block after the access
	Write bool
	SW    bool // software prefetch reference

	Hit       bool
	VictimHit bool              // satisfied by the victim buffer
	MissKind  classify.MissKind // Hill class; classify.Hit on hits
	Victim    cache.Victim      // block displaced on a miss
}

// Observer watches demand L1 accesses (timekeeping tracker, prefetcher
// training, statistics).
type Observer interface {
	OnAccess(ev *AccessEvent)
}

// Eviction describes a block leaving the L1, with the per-frame timing the
// paper's victim-filter hardware measures.
type Eviction struct {
	Now      uint64
	Victim   cache.Victim
	Frame    int
	Incoming uint64 // block whose fill displaced the victim
	DeadTime uint64 // cycles since the frame's last access
	ZeroLive bool   // the victim was never hit after its fill
	Prefetch bool   // the displacing fill was a prefetch
}

// VictimBuffer is the Section 4.2 attachment: it sees every L1 eviction
// and may hold some of them; Lookup interposes on the miss path.
type VictimBuffer interface {
	// Offer presents an eviction; the buffer decides whether to keep it.
	Offer(ev Eviction)
	// Lookup returns true if the buffer holds the block (consuming the
	// entry — the block is swapped back into L1 by the caller).
	Lookup(block uint64, now uint64) bool
}

// PrefetchRequest asks the hierarchy to fetch an L1 block into the L1.
type PrefetchRequest struct {
	// ID names the request in events (PrefetchIssue, PrefetchFill).
	ID    uint64
	Block uint64
	// Slot is the prefetcher's handle on the request's bookkeeping. The
	// hierarchy never interprets it; it only keeps it with the pending
	// fill and hands it back to Filled.
	Slot int
}

// Prefetcher is the Section 5.2 attachment. It observes accesses (to
// train and to schedule) and surrenders ready requests to the hierarchy,
// which issues them as prefetch MSHRs and bus slots allow.
type Prefetcher interface {
	Observer
	// Due pops up to max requests that are ready to issue at `now`. The
	// slice is the prefetcher's reused buffer: it is valid only until
	// the next call, so the caller consumes it at once.
	Due(now uint64, max int) []PrefetchRequest
	// Filled reports the prefetch req, returned as Due issued it (Slot
	// included), arriving in L1 frame `frame` at `at`, displacing victim.
	Filled(req PrefetchRequest, at uint64, frame int, victim cache.Victim)
}

// L2Op describes one L2 array operation, reported to the auditor so it can
// mirror L2 contents: a demand access (Fill false) or a prefetch fill.
type L2Op struct {
	Block  uint64 // L1-block-aligned address presented to the L2
	Write  bool
	Fill   bool
	Hit    bool
	Victim cache.Victim
}

// Auditor receives every functional-contents mutation of the memory
// system in execution order, for lockstep verification against a
// reference model (see internal/oracle). internal/engine calls it. Calls
// arrive in the exact order the caches mutate: prefetch fills installed
// before a demand reference precede its AuditDemand, and prefetch issues
// follow it. The engine only builds L2Op values when an auditor is
// attached, so unaudited runs pay a nil check and nothing else.
type Auditor interface {
	// AuditDemand reports a demand reference after the access completed.
	// l2 is the L2 operation the miss performed, or nil when the miss
	// path skipped the L2 (hit, victim-buffer hit, PerfectL1 shortcut).
	AuditDemand(ev *AccessEvent, l2 *L2Op)
	// AuditPrefetchIssue reports a prefetch's L2 fill at issue time.
	AuditPrefetchIssue(now uint64, l2 *L2Op)
	// AuditPrefetchFill reports a prefetch arriving in the L1 at cycle
	// `at`; installed is false when the block was already resident (the
	// fill was a no-op) and victim is the block displaced when it wasn't.
	AuditPrefetchFill(at, block uint64, installed bool, victim cache.Victim)
}

// frameState is the per-L1-frame counter hardware of Figure 12/18: a
// last-access time (dead-time counter), the generation start, and the
// re-reference bit.
type frameState struct {
	lastAccess uint64
	loadedAt   uint64
	hits       uint64
	// prefetched marks a frame whose current block was installed by a
	// prefetch and has not yet been hit by a demand access — the pending
	// half of the "useful prefetch" counter.
	prefetched bool
}

// pendingFill is a prefetch whose data is still in flight.
type pendingFill struct {
	req      PrefetchRequest
	arriveAt uint64
}

// Stats counts hierarchy events over a measurement window.
type Stats struct {
	Accesses     uint64
	Hits         uint64
	Misses       uint64
	VictimHits   uint64
	ColdMisses   uint64
	ConflMiss    uint64
	CapMiss      uint64
	Writebacks   uint64 // dirty L1 victims sent to the L1/L2 bus
	L2Hits       uint64
	L2Misses     uint64
	L2Writebacks uint64 // dirty L2 victims sent to the memory bus
	Prefetches   uint64 // prefetch fills issued to L2/memory
	PFUseful     uint64 // prefetched blocks a demand reference went on to use
}

// MissRate returns misses per access.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// L2MissRate returns L2 misses per L2 access.
func (s Stats) L2MissRate() float64 {
	if a := s.L2Hits + s.L2Misses; a > 0 {
		return float64(s.L2Misses) / float64(a)
	}
	return 0
}

// Minus returns the per-field delta (s - earlier) — the snapshot
// arithmetic sampled runs use to bracket detailed measurement windows.
func (s Stats) Minus(earlier Stats) Stats {
	return Stats{
		Accesses:     s.Accesses - earlier.Accesses,
		Hits:         s.Hits - earlier.Hits,
		Misses:       s.Misses - earlier.Misses,
		VictimHits:   s.VictimHits - earlier.VictimHits,
		ColdMisses:   s.ColdMisses - earlier.ColdMisses,
		ConflMiss:    s.ConflMiss - earlier.ConflMiss,
		CapMiss:      s.CapMiss - earlier.CapMiss,
		Writebacks:   s.Writebacks - earlier.Writebacks,
		L2Hits:       s.L2Hits - earlier.L2Hits,
		L2Misses:     s.L2Misses - earlier.L2Misses,
		L2Writebacks: s.L2Writebacks - earlier.L2Writebacks,
		Prefetches:   s.Prefetches - earlier.Prefetches,
		PFUseful:     s.PFUseful - earlier.PFUseful,
	}
}

// Hierarchy is the composed memory system. Construct with New.
type Hierarchy struct {
	cfg Config

	l1     *cache.Cache
	l2     *cache.Cache
	busL2  *bus.Bus
	busMem *bus.Bus
	mem    *dram.Memory

	demandMSHR   *cache.MSHRFile
	prefetchMSHR *cache.MSHRFile

	classifier *classify.Classifier
	frames     []frameState

	victim     VictimBuffer
	prefetcher Prefetcher
	observers  []Observer
	events     *events.Sink

	pending []pendingFill
	stats   Stats

	// maxNow is a monotonic high-water mark of observed time, used to
	// drain pending fills in the face of slightly out-of-order issue
	// times.
	maxNow uint64
}

// New builds the hierarchy; it panics on an invalid configuration.
func New(cfg Config) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &Hierarchy{
		cfg:        cfg,
		l1:         cache.New(cfg.L1),
		l2:         cache.New(cfg.L2),
		busL2:      bus.New(cfg.L1L2BusBytes, cfg.L1L2BusRatio),
		busMem:     bus.New(cfg.L2MemBusBytes, cfg.L2MemBusRatio),
		mem:        dram.New(cfg.MemLat),
		demandMSHR: cache.NewMSHRFile(cfg.DemandMSHRs),
		classifier: classify.New(int(cfg.L1.Blocks())),
	}
	if cfg.PrefetchMSHRs > 0 {
		h.prefetchMSHR = cache.NewMSHRFile(cfg.PrefetchMSHRs)
	}
	h.l1.Instrument(ctrL1)
	h.l2.Instrument(ctrL2)
	h.frames = make([]frameState, cfg.L1.Blocks())
	return h
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// L1 returns the L1 data cache (read-only use by attachments).
func (h *Hierarchy) L1() *cache.Cache { return h.l1 }

// AttachVictim installs the victim buffer.
func (h *Hierarchy) AttachVictim(v VictimBuffer) { h.victim = v }

// AttachPrefetcher installs the prefetcher.
func (h *Hierarchy) AttachPrefetcher(p Prefetcher) { h.prefetcher = p }

// AddObserver registers an access observer.
func (h *Hierarchy) AddObserver(o Observer) { h.observers = append(h.observers, o) }

// SetEvents attaches the generation-event sink (nil detaches) and binds
// the L1 geometry so the sink can stamp set indices. Untraced runs pay a
// nil check per emit site and nothing else.
func (h *Hierarchy) SetEvents(s *events.Sink) {
	h.events = s
	s.Bind(h.cfg.L1.BlockBytes, h.cfg.L1.Sets(), h.cfg.L1.Ways)
}

// Stats returns the counters accumulated since the last ResetStats.
func (h *Hierarchy) Stats() Stats { return h.stats }

// ResetStats clears the counters (cache contents are preserved — this is
// the end-of-warm-up hook).
func (h *Hierarchy) ResetStats() {
	h.stats = Stats{}
	h.busL2.Reset()
	h.busMem.Reset()
	h.mem.Reset()
}

// FrameLastAccess returns the frame's dead-time counter origin: the cycle
// of its most recent access.
func (h *Hierarchy) FrameLastAccess(frame int) uint64 { return h.frames[frame].lastAccess }

// Access implements cpu.MemSystem for demand references.
func (h *Hierarchy) Access(r trace.Ref, issueAt uint64) (doneAt uint64) {
	now := issueAt
	if now > h.maxNow {
		h.maxNow = now
	}
	if h.events != nil {
		h.events.AdvanceRef(1)
	}
	h.applyPendingFills(h.maxNow)

	block := h.l1.BlockAddr(r.Addr)
	write := r.Kind == trace.Store
	h.stats.Accesses++

	// A fill already in flight for this block? The reference merges into
	// it (demand MSHR or pending prefetch).
	mergeDone, merged := h.demandMSHR.Outstanding(block, now)
	if !merged {
		if i := h.findPending(block); i >= 0 {
			p := h.pending[i]
			// The demand wants the data now; the prefetch delivers it at
			// arrival. Promote the fill and let the reference wait for it
			// (a late but still useful prefetch).
			h.completePending(i)
			merged, mergeDone = true, p.arriveAt
		}
	}

	// The Hill shadow cache observes every access (hits included) so its
	// LRU order stays true to the reference stream; its verdict is only
	// consulted on real-cache misses.
	missKind := h.classifier.Access(block)

	res := h.l1.Access(r.Addr, write)
	ev := AccessEvent{
		Now:   now,
		Addr:  r.Addr,
		Block: block,
		PC:    r.PC,
		Frame: res.Frame,
		Write: write,
		SW:    r.Kind == trace.SWPrefetch,
		Hit:   res.Hit,
	}

	switch {
	case res.Hit && merged:
		// Secondary miss: data arrives when the outstanding fill does.
		doneAt = mergeDone
		if m := now + h.cfg.L1HitLat; m > doneAt {
			doneAt = m
		}
		h.stats.Hits++
	case res.Hit:
		doneAt = now + h.cfg.L1HitLat
		h.stats.Hits++
	default:
		doneAt = h.miss(&ev, res, block, missKind, write, now)
	}
	ev.Done = doneAt
	if h.events != nil {
		if res.Hit {
			h.events.Emit(events.Event{Kind: events.Hit, Cycle: now, Block: block, Frame: int32(res.Frame), A: doneAt})
		} else {
			h.events.Emit(events.Event{Kind: events.Fill, Cycle: now, Block: block, Frame: int32(res.Frame), A: doneAt, B: uint64(ev.MissKind)})
		}
	}

	// Per-frame counter hardware update.
	fs := &h.frames[res.Frame]
	if res.Hit {
		fs.hits++
		if fs.prefetched {
			// First demand use of a prefetched block: the prefetch paid.
			fs.prefetched = false
			h.stats.PFUseful++
			ctrPFUseful.Inc()
		}
	} else {
		fs.loadedAt = now
		fs.hits = 0
		fs.prefetched = false
	}
	if now > fs.lastAccess || !res.Hit {
		fs.lastAccess = now
	}

	for _, o := range h.observers {
		o.OnAccess(&ev)
	}
	if h.prefetcher != nil {
		h.prefetcher.OnAccess(&ev)
		// Issue at this access's own timestamp, not the high-water mark:
		// out-of-order issue times mean maxNow can lead the typical
		// demand by a full miss latency, and prefetch transfers stamped
		// there would artificially queue ahead of every later demand.
		h.issuePrefetches(now)
	}
	return doneAt
}

// miss handles the L1 miss path and returns the data-ready time.
func (h *Hierarchy) miss(ev *AccessEvent, res cache.Result, block uint64, kind classify.MissKind, write bool, now uint64) uint64 {
	h.stats.Misses++
	ev.MissKind = kind
	switch kind {
	case classify.Cold:
		h.stats.ColdMisses++
	case classify.Conflict:
		h.stats.ConflMiss++
	case classify.Capacity:
		h.stats.CapMiss++
	}

	// The eviction happens regardless of where the fill comes from.
	if res.Victim.Valid {
		fs := &h.frames[res.Frame]
		var dead uint64
		if now > fs.lastAccess {
			dead = now - fs.lastAccess
		}
		if fs.lastAccess == 0 && fs.loadedAt == 0 {
			dead = 0 // frame never used before
		}
		evict := Eviction{
			Now:      now,
			Victim:   res.Victim,
			Frame:    res.Frame,
			Incoming: block,
			DeadTime: dead,
			ZeroLive: fs.hits == 0,
		}
		ev.Victim = res.Victim
		if h.events != nil {
			h.events.Emit(events.Event{Kind: events.Evict, Cycle: now, Block: res.Victim.Addr, Frame: int32(res.Frame), A: dead, B: evict.Flags()})
		}
		if h.victim != nil {
			h.victim.Offer(evict)
		}
		if res.Victim.Dirty {
			// Write-back occupies the L1/L2 bus.
			h.stats.Writebacks++
			h.busL2.Demand(now, h.cfg.L1.BlockBytes)
		}
	}

	// Victim-buffer hit: a short swap instead of an L2 round trip.
	if h.victim != nil && h.victim.Lookup(block, now) {
		ev.VictimHit = true
		h.stats.VictimHits++
		return now + h.cfg.L1HitLat + 1
	}

	// Limit study: non-cold misses are free.
	if h.cfg.PerfectL1 && kind != classify.Cold {
		return now + h.cfg.L1HitLat
	}

	// Real fetch from L2/memory.
	start := h.demandMSHR.Allocate(block, now+h.cfg.L1HitLat)
	_, busDone := h.busL2.Demand(start, h.cfg.L1.BlockBytes)
	l2res := h.l2.Access(block, write)
	var done uint64
	if l2res.Hit {
		h.stats.L2Hits++
		done = busDone + h.cfg.L2Lat
	} else {
		h.stats.L2Misses++
		_, memBusDone := h.busMem.Demand(busDone+h.cfg.L2Lat, h.cfg.L2.BlockBytes)
		done = h.mem.Access(memBusDone)
		if l2res.Victim.Valid && l2res.Victim.Dirty {
			h.stats.L2Writebacks++
			h.busMem.Demand(done, h.cfg.L2.BlockBytes)
		}
	}
	h.demandMSHR.Commit(block, done)
	if h.events != nil {
		h.events.Emit(events.Event{Kind: events.MSHR, Cycle: now, Frame: -1, A: uint64(h.demandMSHR.Len()), B: uint64(h.cfg.DemandMSHRs)})
	}
	return done
}

// Flags packs the eviction's booleans into an Evict event's payload.
func (ev Eviction) Flags() uint64 {
	var f uint64
	if ev.ZeroLive {
		f |= events.EvictZeroLive
	}
	if ev.Victim.Dirty {
		f |= events.EvictDirty
	}
	if ev.Prefetch {
		f |= events.EvictByPrefetch
	}
	return f
}

// AccessFunctional implements cpu.FunctionalMemSystem: the contents-only
// access path functional warming (internal/sample) drives between
// detailed windows. It updates everything that constitutes warm state —
// L1/L2/victim-buffer contents, the per-frame counter hardware, the
// classifier's cold set, observers and the prefetcher — but performs no
// timing simulation: no MSHR merging, no bus or DRAM occupancy, and
// misses complete instantly (Done == Now). Non-cold misses carry
// classify.Unclassified because the shadow cache's LRU order is not
// maintained on this path (cold detection stays exact).
func (h *Hierarchy) AccessFunctional(r trace.Ref, now uint64) {
	if now > h.maxNow {
		h.maxNow = now
	}
	if h.events != nil {
		h.events.AdvanceRef(1)
	}
	if len(h.pending) > 0 {
		h.applyPendingFills(h.maxNow)
	}

	block := h.l1.BlockAddr(r.Addr)
	write := r.Kind == trace.Store
	h.stats.Accesses++

	res := h.l1.Access(r.Addr, write)
	ev := AccessEvent{
		Now:   now,
		Done:  now,
		Addr:  r.Addr,
		Block: block,
		PC:    r.PC,
		Frame: res.Frame,
		Write: write,
		SW:    r.Kind == trace.SWPrefetch,
		Hit:   res.Hit,
	}
	if res.Hit {
		h.stats.Hits++
	} else {
		h.missFunctional(&ev, res, block, write, now)
	}
	if h.events != nil {
		if res.Hit {
			h.events.Emit(events.Event{Kind: events.Hit, Cycle: now, Block: block, Frame: int32(res.Frame), A: now})
		} else {
			h.events.Emit(events.Event{Kind: events.Fill, Cycle: now, Block: block, Frame: int32(res.Frame), A: now, B: uint64(ev.MissKind)})
		}
	}

	// Per-frame counter hardware update, identical to Access.
	fs := &h.frames[res.Frame]
	if res.Hit {
		fs.hits++
		if fs.prefetched {
			fs.prefetched = false
			h.stats.PFUseful++
			ctrPFUseful.Inc()
		}
	} else {
		fs.loadedAt = now
		fs.hits = 0
		fs.prefetched = false
	}
	if now > fs.lastAccess || !res.Hit {
		fs.lastAccess = now
	}

	for _, o := range h.observers {
		o.OnAccess(&ev)
	}
	if h.prefetcher != nil {
		h.prefetcher.OnAccess(&ev)
		h.issuePrefetches(now)
	}
}

// missFunctional handles the L1 miss path for AccessFunctional: eviction
// and victim-buffer interposition behave exactly as in miss, but the fill
// goes straight to the L2 array with no MSHR, bus or memory timing.
func (h *Hierarchy) missFunctional(ev *AccessEvent, res cache.Result, block uint64, write bool, now uint64) {
	h.stats.Misses++
	if h.classifier.Warm(block) {
		ev.MissKind = classify.Cold
		h.stats.ColdMisses++
	} else {
		ev.MissKind = classify.Unclassified
	}

	if res.Victim.Valid {
		fs := &h.frames[res.Frame]
		var dead uint64
		if now > fs.lastAccess {
			dead = now - fs.lastAccess
		}
		if fs.lastAccess == 0 && fs.loadedAt == 0 {
			dead = 0
		}
		ev.Victim = res.Victim
		evict := Eviction{
			Now:      now,
			Victim:   res.Victim,
			Frame:    res.Frame,
			Incoming: block,
			DeadTime: dead,
			ZeroLive: fs.hits == 0,
		}
		if h.events != nil {
			h.events.Emit(events.Event{Kind: events.Evict, Cycle: now, Block: res.Victim.Addr, Frame: int32(res.Frame), A: dead, B: evict.Flags()})
		}
		if h.victim != nil {
			h.victim.Offer(evict)
		}
		if res.Victim.Dirty {
			h.stats.Writebacks++
		}
	}

	if h.victim != nil && h.victim.Lookup(block, now) {
		ev.VictimHit = true
		h.stats.VictimHits++
		return
	}

	if h.cfg.PerfectL1 && ev.MissKind != classify.Cold {
		return
	}

	l2res := h.l2.Access(block, write)
	if l2res.Hit {
		h.stats.L2Hits++
	} else {
		h.stats.L2Misses++
		if l2res.Victim.Valid && l2res.Victim.Dirty {
			h.stats.L2Writebacks++
		}
	}
}

// issuePrefetches pulls due requests from the prefetcher, subject to
// prefetch MSHR availability, and puts their fills in flight.
func (h *Hierarchy) issuePrefetches(now uint64) {
	if h.prefetchMSHR == nil {
		return
	}
	slots := h.cfg.PrefetchMSHRs - h.prefetchMSHR.InFlight(now)
	if slots <= 0 {
		return
	}
	// Demand priority: prefetches are only admitted when the L1/L2 bus
	// has spare capacity; otherwise they wait in the request queue (and
	// may be discarded when it overflows, the paper's "discarded" class).
	// The admission clock is the high-water issue time: out-of-order
	// issue makes individual access timestamps lag the bus's working
	// point, and gating on them would starve prefetching exactly when
	// dependence stalls leave the bus idle.
	const prefetchBusLag = 4
	if !h.busL2.CanPrefetch(h.maxNow, prefetchBusLag) {
		return
	}
	for _, req := range h.prefetcher.Due(now, slots) {
		// Already resident or already being fetched: nothing to do; the
		// fill completes immediately as a no-op.
		if _, hit := h.l1.Probe(req.Block); hit {
			continue
		}
		if h.findPending(req.Block) >= 0 {
			continue
		}
		if _, out := h.demandMSHR.Outstanding(req.Block, now); out {
			continue
		}
		h.stats.Prefetches++
		ctrPFIssued.Inc()
		_, busDone := h.busL2.Prefetch(now, h.cfg.L1.BlockBytes)
		l2res := h.l2.Fill(req.Block)
		var done uint64
		if l2res.Hit {
			done = busDone + h.cfg.L2Lat
		} else {
			_, memBusDone := h.busMem.Prefetch(busDone+h.cfg.L2Lat, h.cfg.L2.BlockBytes)
			done = h.mem.Access(memBusDone)
		}
		h.prefetchMSHR.Commit(req.Block, done)
		if h.events != nil {
			h.events.Emit(events.Event{Kind: events.PrefetchIssue, Cycle: now, Block: req.Block, Frame: -1, A: done, B: req.ID})
		}
		h.pending = append(h.pending, pendingFill{req: req, arriveAt: done})
	}
}

// findPending returns the index of the in-flight prefetch for block, or -1.
func (h *Hierarchy) findPending(block uint64) int {
	for i := range h.pending {
		if h.pending[i].req.Block == block {
			return i
		}
	}
	return -1
}

// applyPendingFills installs prefetched blocks whose data has arrived.
func (h *Hierarchy) applyPendingFills(now uint64) {
	for i := 0; i < len(h.pending); {
		if h.pending[i].arriveAt <= now {
			h.completePending(i)
		} else {
			i++
		}
	}
}

// completePending installs pending fill i into the L1 and notifies the
// prefetcher; the entry is removed.
func (h *Hierarchy) completePending(i int) {
	p := h.pending[i]
	h.pending = append(h.pending[:i], h.pending[i+1:]...)

	res := h.l1.Fill(p.req.Block)
	if h.events != nil {
		installed := uint64(0)
		if !res.Hit {
			installed = 1
		}
		h.events.Emit(events.Event{Kind: events.PrefetchFill, Cycle: p.arriveAt, Block: p.req.Block, Frame: int32(res.Frame), A: installed, B: p.req.ID})
	}
	if !res.Hit && res.Victim.Valid {
		fs := &h.frames[res.Frame]
		var dead uint64
		if fs.lastAccess < p.arriveAt {
			dead = p.arriveAt - fs.lastAccess
		}
		evict := Eviction{
			Now:      p.arriveAt,
			Victim:   res.Victim,
			Frame:    res.Frame,
			Incoming: p.req.Block,
			DeadTime: dead,
			ZeroLive: fs.hits == 0,
			Prefetch: true,
		}
		if h.events != nil {
			h.events.Emit(events.Event{Kind: events.Evict, Cycle: p.arriveAt, Block: res.Victim.Addr, Frame: int32(res.Frame), A: dead, B: evict.Flags()})
		}
		if h.victim != nil {
			h.victim.Offer(evict)
		}
	}
	if !res.Hit {
		fs := &h.frames[res.Frame]
		fs.loadedAt = p.arriveAt
		fs.hits = 0
		fs.lastAccess = p.arriveAt
		fs.prefetched = true
	}
	if h.prefetcher != nil {
		var v cache.Victim
		if !res.Hit {
			v = res.Victim
		}
		h.prefetcher.Filled(p.req, p.arriveAt, res.Frame, v)
	}
}
