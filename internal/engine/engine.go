// Package engine is the simulator's execution engine: the processor
// timing model and memory hierarchy (cpu.Model.Step -> hier.Access ->
// cache/core.Tracker, the reference loop) re-expressed as one inlined
// per-reference state machine over parallel arrays. sim.Run drives every
// run through it; the reference loop survives only as the executable
// specification the tests compare it against.
//
// What changes relative to the reference implementation:
//
//   - frames, cache lines, MSHRs and the miss classifier are parallel
//     arrays, word-level bitmaps and open-addressed tables instead of
//     pointer-chased structs and Go maps (see cache.go, mshr.go,
//     classify.go and internal/hashtab);
//   - references are processed in fixed-size batches (batchRefs) so the
//     context-check/progress cadence and the observability-counter
//     flushes are amortised over thousands of references;
//   - a call of at least supplyMinRefs references, started while a P is
//     free, has them generated on a second goroutine, which reads exactly
//     that call's references from the stream into a small ring of reused
//     chunks (supply.go); the stepping loop, all machine state and both
//     hooks stay on the caller's goroutine, so only where a sub-batch
//     comes from changes;
//   - the ROB window lookup replaces the reference's per-reference binary
//     search with a monotone finger (retirement queries are strictly
//     increasing, so the answer only ever moves forward);
//   - the Observer/VictimBuffer/Prefetcher attachment points are
//     devirtualized: the engine holds the shipped concrete types
//     (*core.FastTracker, *victim.Cache, *decay.Sim, the three
//     prefetchers) and dispatches via enum switch, so no per-reference
//     interface calls remain and event structs are only materialised for
//     attachments that need them.
//
// What does NOT change: the transition function. Every stats counter,
// timing decision and replacement choice is an exact transcription of
// the reference path, proven byte-identical over the golden corpus by
// sim's differential engine gate. That includes the functional-warming
// step sampled runs alternate with detailed windows (RunFunctional, the
// transcription of cpu.Model.RunFunctional over hier.AccessFunctional).
// The two optional hooks sit at the reference's own points:
// generation events (SetEvents) are emitted where hier.Hierarchy emits
// them, in the same order, and the lockstep auditor (SetAuditor) sees the
// same demand, prefetch-issue and prefetch-fill calls. Both cost a nil
// check per site when detached.
package engine

import (
	"context"

	"timekeeping/internal/bus"
	"timekeeping/internal/cache"
	"timekeeping/internal/classify"
	"timekeeping/internal/core"
	"timekeeping/internal/cpu"
	"timekeeping/internal/decay"
	"timekeeping/internal/dram"
	"timekeeping/internal/events"
	"timekeeping/internal/hashtab"
	"timekeeping/internal/hier"
	"timekeeping/internal/obs"
	"timekeeping/internal/prefetch"
	"timekeeping/internal/trace"
	"timekeeping/internal/victim"
)

// The process-cumulative observability counters the reference hierarchy
// bumps per access; the engine accumulates locally and flushes per batch.
// Registry lookups by name return the same counters hier registered.
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

// batchRefs is the fixed batch size: the reference loop's context-check
// cadence, so progress updates land on the same reference counts.
const batchRefs = 4096

// pfKind enumerates the shipped prefetchers for devirtualized dispatch.
type pfKind uint8

const (
	pfNone pfKind = iota
	pfTK
	pfDBCP
	pfNL
)

// Config sizes the engine (the hierarchy and core of one run).
type Config struct {
	Hier hier.Config
	CPU  cpu.Config
}

// retireRec remembers one reference's retirement for the ROB window
// constraint (identical to the reference ring's entries).
type retireRec struct {
	idx    uint64
	retire uint64
}

// pendingFill is a prefetch whose data is still in flight.
type pendingFill struct {
	req      hier.PrefetchRequest
	arriveAt uint64
}

// Engine is one run's complete simulation state. Construct with New,
// attach mechanisms, then drive warm-up and measurement with Run (and,
// for sampled runs, RunFunctional) exactly as sim does for the reference
// path.
type Engine struct {
	cfg Config

	// --- CPU state (cpu.Model, flattened) ---
	sub          uint64
	window       uint64
	execLatSub   uint64
	idx          uint64
	fetchSub     uint64
	retireSub    uint64
	lastLoadDone uint64
	refs         uint64
	loads        uint64
	stores       uint64

	ring     []retireRec
	ringMask int
	rHead    int
	rN       int
	finger   int
	fingerOK bool

	prog *obs.Progress

	// --- Hierarchy state (hier.Hierarchy, flattened) ---
	l1, l2       *soaCache
	busL2        *bus.Bus
	busMem       *bus.Bus
	mem          *dram.Memory
	demandMSHR   *soaMSHR
	prefetchMSHR *soaMSHR
	classifier   *soaClassifier

	// Per-frame counter hardware (hier.frameState). One struct per frame
	// so the epilogue's reads and writes share a cache line.
	fctr []frameCtr

	pending []pendingFill
	stats   hier.Stats
	maxNow  uint64

	// Local observability tallies flushed per batch.
	pfIssuedN uint64
	pfUsefulN uint64

	// --- Devirtualized attachments ---
	victim  *victim.Cache
	tracker *core.FastTracker
	dec     *decay.Sim
	pf      pfKind
	tk      *prefetch.Timekeeping
	dbcp    *prefetch.DBCP
	nl      *prefetch.NextLine

	// needEvent is true when an attachment consumes *hier.AccessEvent
	// (decay, a prefetcher or the auditor); otherwise no event struct is
	// built.
	needEvent bool

	// --- Optional hooks (nil when detached) ---
	events *events.Sink
	// evFrames is the sink's per-frame set filter (nil = every frame):
	// events on a filtered-out frame are never built.
	evFrames []bool
	// evRefs counts demand accesses not yet added to the sink's
	// reference clock. The clock is read only when something emits, so
	// syncRefs adds them in one step there instead of one atomic add per
	// reference.
	evRefs uint64
	audit  hier.Auditor
	// audEv and audL2 are the auditor's engine-owned copies of the current
	// access event and L2 operation: handing the hot loop's stack values
	// across the interface would move them to the heap on every reference,
	// audited or not. audL2On marks a demand miss that reached the L2.
	audEv   hier.AccessEvent
	audL2   hier.L2Op
	audL2On bool

	// Reference lookahead buffer: a call without a supply reads each
	// sub-batch from the stream into it (one with a supply takes it from
	// the supply's chunk), and Run warms each reference's hash-table cache
	// lines before stepping it, overlapping the tables' DRAM latency with
	// earlier work. touchSink keeps the warming loads from being optimised
	// away; no result ever reads it.
	lookahead [touchBatch]trace.Ref
	touchSink uint64
}

// touchBatch is the prefetch lookahead: large enough to cover DRAM
// latency many times over, small enough that the warmed lines (a few per
// reference) still fit in L2 when the sub-batch is processed.
const touchBatch = 256

// frameCtr is one frame's counter hardware (hit count, load/access
// times, prefetched marker), matching hier's per-frame state.
type frameCtr struct {
	lastAccess uint64
	loadedAt   uint64
	hits       uint64
	prefetched bool
}

// New builds an engine; it panics on an invalid configuration (mirroring
// hier.New and cpu.New).
func New(cfg Config) *Engine {
	if err := cfg.Hier.Validate(); err != nil {
		panic(err)
	}
	if err := cfg.CPU.Validate(); err != nil {
		panic(err)
	}
	size := 1
	for size < 2*cfg.CPU.Window {
		size <<= 1
	}
	frames := int(cfg.Hier.L1.Blocks())
	e := &Engine{
		cfg:        cfg,
		sub:        uint64(cfg.CPU.Width),
		window:     uint64(cfg.CPU.Window),
		execLatSub: cfg.CPU.ExecLat * uint64(cfg.CPU.Width),
		ring:       make([]retireRec, size),
		ringMask:   size - 1,
		l1:         newSoaCache(cfg.Hier.L1, ctrL1),
		l2:         newSoaCache(cfg.Hier.L2, ctrL2),
		busL2:      bus.New(cfg.Hier.L1L2BusBytes, cfg.Hier.L1L2BusRatio),
		busMem:     bus.New(cfg.Hier.L2MemBusBytes, cfg.Hier.L2MemBusRatio),
		mem:        dram.New(cfg.Hier.MemLat),
		demandMSHR: newSoaMSHR(cfg.Hier.DemandMSHRs),
		classifier: newSoaClassifier(frames),
		fctr:       make([]frameCtr, frames),
	}
	if cfg.Hier.PrefetchMSHRs > 0 {
		e.prefetchMSHR = newSoaMSHR(cfg.Hier.PrefetchMSHRs)
	}
	return e
}

// L1 returns the engine's L1 as the read-only view prefetchers consume.
func (e *Engine) L1() prefetch.L1View { return e.l1 }

// NumFrames returns the L1 frame count (victim-filter sizing).
func (e *Engine) NumFrames() int { return e.l1.NumFrames() }

// AttachVictim installs the victim cache.
func (e *Engine) AttachVictim(v *victim.Cache) { e.victim = v }

// AttachTracker installs the fast timekeeping tracker.
func (e *Engine) AttachTracker(t *core.FastTracker) { e.tracker = t }

// AttachDecay installs the cache-decay evaluation.
func (e *Engine) AttachDecay(d *decay.Sim) {
	e.dec = d
	e.needEvent = true
}

// AttachTimekeeping installs the timekeeping prefetcher.
func (e *Engine) AttachTimekeeping(p *prefetch.Timekeeping) {
	e.pf, e.tk = pfTK, p
	e.needEvent = true
}

// AttachDBCP installs the dead-block correlating prefetcher.
func (e *Engine) AttachDBCP(p *prefetch.DBCP) {
	e.pf, e.dbcp = pfDBCP, p
	e.needEvent = true
}

// AttachNextLine installs the next-line prefetcher.
func (e *Engine) AttachNextLine(p *prefetch.NextLine) {
	e.pf, e.nl = pfNL, p
	e.needEvent = true
}

// TakeSeenSet gives e the classifier's seen set of donor, cleared, when it
// is larger than e's own: a segmented run's fork takes over a finished
// segment's set instead of growing its own from the first size. e must
// not have stepped a reference, and donor must step none again.
func (e *Engine) TakeSeenSet(donor *Engine) {
	e.classifier.seen.Take(&donor.classifier.seen)
}

// ExpectBlocks tells e that its run touches at most n distinct L1
// blocks, so the seen set's first grow goes straight to their size
// (hashtab.Table.Expect); 0 leaves it doubling from its first size. The
// count sizes the set and changes no result.
func (e *Engine) ExpectBlocks(n int) { e.classifier.seen.Expect(n) }

// SetProgress attaches a live progress handle (nil detaches).
func (e *Engine) SetProgress(p *obs.Progress) { e.prog = p }

// SetEvents attaches the generation-event sink (nil detaches) and binds
// the L1 geometry so the sink can stamp set indices. Untraced runs pay a
// nil check per emit site and nothing else; a set-filtered capture builds
// events only on the frames it keeps.
func (e *Engine) SetEvents(s *events.Sink) {
	e.events = s
	s.Bind(e.cfg.Hier.L1.BlockBytes, e.cfg.Hier.L1.Sets(), e.cfg.Hier.L1.Ways)
	e.evFrames = s.FrameFilter(e.cfg.Hier.L1.Sets(), e.cfg.Hier.L1.Ways)
}

// syncRefs brings the sink's reference clock up to date. It runs before
// anything that may emit: the engine's own emit sites, the victim cache
// and the decay evaluation, and the end of a run, after which spans read
// the clock.
func (e *Engine) syncRefs() {
	if e.evRefs != 0 {
		e.events.AdvanceRef(e.evRefs)
		e.evRefs = 0
	}
}

// traced reports whether an event on frame can be captured: a sink is
// attached and its set filter keeps the frame.
func (e *Engine) traced(frame int) bool {
	return e.events != nil && (e.evFrames == nil || e.evFrames[frame])
}

// SetAuditor attaches the lockstep auditor (nil detaches). Demand
// accesses are reported after the per-frame counter update and before
// the observers; a prefetch's L2 fill at issue, and its L1 fill on
// arrival. Only the detailed path audits: functional warming performs no
// timing for the oracle to mirror.
func (e *Engine) SetAuditor(a hier.Auditor) {
	e.audit = a
	e.needEvent = e.needEvent || a != nil
}

// Stats returns the hierarchy counters accumulated since ResetStats.
func (e *Engine) Stats() hier.Stats { return e.stats }

// ResetStats clears the hierarchy's measurement-window counters,
// mirroring hier.Hierarchy.ResetStats (contents preserved; buses and
// memory statistics reset).
func (e *Engine) ResetStats() {
	e.stats = hier.Stats{}
	e.busL2.Reset()
	e.busMem.Reset()
	e.mem.Reset()
}

// Snapshot returns the cumulative CPU execution summary, mirroring
// cpu.Model.Snapshot.
func (e *Engine) Snapshot() cpu.Result {
	res := cpu.Result{
		Insts:  e.idx,
		Refs:   e.refs,
		Loads:  e.loads,
		Stores: e.stores,
		Cycles: (e.retireSub + e.sub - 1) / e.sub,
	}
	if res.Cycles > 0 {
		res.IPC = float64(res.Insts) / float64(res.Cycles)
	}
	return res
}

// Now returns the current retirement cycle.
func (e *Engine) Now() uint64 { return e.retireSub / e.sub }

// flushCounters drains the batched observability tallies into the shared
// process counters.
func (e *Engine) flushCounters() {
	e.l1.flush()
	e.l2.flush()
	addCounter(ctrPFIssued, &e.pfIssuedN)
	addCounter(ctrPFUseful, &e.pfUsefulN)
}

// Run drives up to maxRefs references from the stream in batches,
// mirroring cpu.Model.RunContext: cancellation and progress land on the
// same reference counts, and the returned snapshot is cumulative. A call
// of at least supplyMinRefs references reads them on a second goroutine
// when a P is free for it, exactly maxRefs of them unless the stream ends
// first, and that goroutine has stopped when Run returns. After a
// cancelled call the stream may have been read past the snapshot's
// count, so a caller drops the stream then.
func (e *Engine) Run(ctx context.Context, s trace.Stream, maxRefs uint64) (cpu.Result, error) {
	return e.run(ctx, s, maxRefs, 0)
}

// RunFunctional drives up to maxRefs references through the functional-
// warming path at a nominal rate of cpi cycles per instruction (0 = 1.0),
// mirroring cpu.Model.RunFunctional over a hier.Hierarchy: the same
// clock advance, the same contents-only accesses, the same cadence.
func (e *Engine) RunFunctional(ctx context.Context, s trace.Stream, maxRefs uint64, cpi float64) (cpu.Result, error) {
	if cpi <= 0 {
		cpi = 1
	}
	subPerInst := uint64(cpi*float64(e.sub) + 0.5)
	if subPerInst == 0 {
		subPerInst = 1
	}
	return e.run(ctx, s, maxRefs, subPerInst)
}

// run is the batch loop behind Run and RunFunctional: subPerInst == 0
// steps references through the detailed model, otherwise through
// functional warming at that many subcycles per instruction.
func (e *Engine) run(ctx context.Context, s trace.Stream, maxRefs, subPerInst uint64) (cpu.Result, error) {
	var done, reported uint64
	busy.Add(1)
	sup := startSupply(s, maxRefs)
	defer func() {
		if sup != nil {
			sup.stop()
		}
		busy.Add(-1)
		e.prog.Add(done - reported)
		e.flushCounters()
		e.syncRefs()
	}()
	for done < maxRefs {
		// Batch boundary: progress, counter flush, cancellation.
		e.prog.Add(done - reported)
		reported = done
		e.flushCounters()
		if err := ctx.Err(); err != nil {
			return e.Snapshot(), err
		}
		batch := maxRefs - done
		if batch > batchRefs {
			batch = batchRefs
		}
		for got := uint64(0); got < batch; {
			// Take a sub-batch from the supply, or read it from the stream
			// here, warm every reference's table lines, then step them in
			// order. The warming reads are correctness-neutral (see
			// touchTables); they only overlap the hash tables' memory
			// latency with useful work.
			want := batch - got
			if want > touchBatch {
				want = touchBatch
			}
			var refs []trace.Ref
			if sup != nil {
				refs = sup.take(int(want))
			} else {
				n := 0
				for uint64(n) < want && s.Next(&e.lookahead[n]) {
					n++
				}
				refs = e.lookahead[:n]
			}
			n := len(refs)
			if e.tablesSpill() {
				sink := uint64(0)
				for i := 0; i < n; i++ {
					sink += e.touchTables(refs[i].Addr)
				}
				e.touchSink += sink
			}
			for i := 0; i < n; i++ {
				r := &refs[i]
				if subPerInst == 0 {
					e.step(r)
				} else {
					e.stepFunctional(r, subPerInst)
				}
				done++
				e.refs++
				switch r.Kind {
				case trace.Load:
					e.loads++
				case trace.Store:
					e.stores++
				}
			}
			got += uint64(n)
			if uint64(n) < want {
				return e.Snapshot(), nil // stream exhausted
			}
		}
	}
	return e.Snapshot(), nil
}

// tablesSpill reports whether the hot hash tables have outgrown the
// last-level cache's comfortable reach, the regime where touchTables'
// warming loads pay for themselves. Small runs keep every table resident
// and skip the sweep entirely.
func (e *Engine) tablesSpill() bool {
	const spillBytes = 4 << 20
	bytes := e.classifier.seen.Bytes() + len(e.classifier.mEnt)*16 + len(e.l1.tags)*16
	if e.tracker != nil {
		bytes += e.tracker.HistFootprint()
	}
	return bytes > spillBytes
}

// touchTables reads the cache lines an upcoming reference's bookkeeping
// will probe — the L1 tag set, the classifier's resident map and seen
// set, and the tracker's block-history slot. These are plain loads whose
// values feed only touchSink, never a result, so a table growing between
// the touch and the real access costs nothing but the wasted load.
func (e *Engine) touchTables(addr uint64) uint64 {
	block := e.l1.blockAddr(addr)
	h := hashtab.Hash(block)
	set := (block >> e.l1.blockShift) & e.l1.setMask
	v := e.l1.tags[int(set)*e.l1.ways]
	c := e.classifier
	v += c.mEnt[h&c.mMask].block + c.seen.Touch(h)
	if e.tracker != nil {
		v += e.tracker.Touch(block)
	}
	return v
}

// retireOf returns the retirement subcycle of instruction j. Queries
// from step are strictly increasing (j = idx-Window and idx grows), so
// a monotone finger replaces the reference's binary search: the answer
// slot only ever moves forward, and amortised cost is O(1).
func (e *Engine) retireOf(j uint64) uint64 {
	if e.rN == 0 {
		return 0
	}
	oldest := (e.rHead - e.rN + len(e.ring)) & e.ringMask
	if e.ring[oldest].idx > j {
		return 0
	}
	pos := e.finger
	if !e.fingerOK || e.ring[pos].idx > j {
		pos = oldest
	}
	for {
		next := (pos + 1) & e.ringMask
		if next == e.rHead || e.ring[next].idx > j {
			break
		}
		pos = next
	}
	e.finger, e.fingerOK = pos, true
	best := e.ring[pos]
	return best.retire + (j - best.idx)
}

func (e *Engine) record(idx, retire uint64) {
	e.ring[e.rHead] = retireRec{idx: idx, retire: retire}
	e.rHead = (e.rHead + 1) & e.ringMask
	if e.rN < len(e.ring) {
		e.rN++
	}
}

// step transcribes cpu.Model.Step with the hierarchy access inlined.
func (e *Engine) step(r *trace.Ref) {
	gap := uint64(r.Gap)
	e.idx += gap + 1
	e.fetchSub += gap + 1

	dispatch := e.fetchSub
	if e.idx > e.window {
		if w := e.retireOf(e.idx - e.window); w > dispatch {
			dispatch = w
		}
	}

	issue := dispatch
	if r.DepPrev && e.lastLoadDone > issue {
		issue = e.lastLoadDone
	}
	issueCycle := issue / e.sub

	execDone := dispatch + e.execLatSub
	var completion uint64
	if r.Kind == trace.Load {
		doneCycle := e.access(r, issueCycle)
		doneSub := doneCycle * e.sub
		completion = doneSub
		if execDone > completion {
			completion = execDone
		}
		e.lastLoadDone = completion
	} else {
		e.access(r, issueCycle)
		completion = execDone
	}

	retire := e.retireSub + gap + 1
	if completion > retire {
		retire = completion
	}
	e.retireSub = retire
	e.record(e.idx, retire)
}

// stepFunctional transcribes cpu.Model.StepFunctional: the OoO window and
// latency machinery are bypassed, the clock advances at the nominal rate,
// and the retirement ring is still maintained so a later step's window
// constraint stays consistent.
func (e *Engine) stepFunctional(r *trace.Ref, subPerInst uint64) {
	gap := uint64(r.Gap)
	e.idx += gap + 1
	adv := (gap + 1) * subPerInst
	e.fetchSub += adv
	e.retireSub += adv
	e.accessFunctional(r, e.retireSub/e.sub)
	e.record(e.idx, e.retireSub)
}

// access transcribes hier.Hierarchy.Access, its event emit sites and the
// lockstep audit calls included.
func (e *Engine) access(r *trace.Ref, now uint64) (doneAt uint64) {
	if now > e.maxNow {
		e.maxNow = now
	}
	if e.events != nil {
		e.evRefs++
	}
	if len(e.pending) > 0 {
		e.applyPendingFills(e.maxNow)
	}

	block := e.l1.blockAddr(r.Addr)
	write := r.Kind == trace.Store
	e.stats.Accesses++

	mergeDone, merged := e.demandMSHR.outstanding(block, now)
	if !merged {
		if i := e.findPending(block); i >= 0 {
			p := e.pending[i]
			e.completePending(i)
			merged, mergeDone = true, p.arriveAt
		}
	}

	missKind := e.classifier.access(block)
	hit, frame, resVictim := e.l1.access(r.Addr, write)

	var ev hier.AccessEvent
	evp := (*hier.AccessEvent)(nil)
	if e.needEvent {
		ev = hier.AccessEvent{
			Now:   now,
			Addr:  r.Addr,
			Block: block,
			PC:    r.PC,
			Frame: frame,
			Write: write,
			SW:    r.Kind == trace.SWPrefetch,
			Hit:   hit,
		}
		evp = &ev
	}

	victimValid := false
	switch {
	case hit && merged:
		doneAt = mergeDone
		if m := now + e.cfg.Hier.L1HitLat; m > doneAt {
			doneAt = m
		}
		e.stats.Hits++
	case hit:
		doneAt = now + e.cfg.Hier.L1HitLat
		e.stats.Hits++
	default:
		doneAt = e.miss(block, missKind, write, now, frame, resVictim, evp)
		victimValid = resVictim.Valid
	}
	if evp != nil {
		evp.Done = doneAt
	}
	if e.traced(frame) {
		e.emitAccess(now, block, frame, hit, doneAt, missKind)
	}

	// Per-frame counter hardware update, then the observers: observe's
	// body, kept inline because an out-of-line call here costs the exact
	// sweep about 2.5% of its wall time.
	fc := &e.fctr[frame]
	if hit {
		fc.hits++
		if fc.prefetched {
			fc.prefetched = false
			e.stats.PFUseful++
			e.pfUsefulN++
		}
		if now > fc.lastAccess {
			fc.lastAccess = now
		}
	} else {
		fc.loadedAt = now
		fc.hits = 0
		fc.prefetched = false
		fc.lastAccess = now
	}
	if e.audit != nil {
		e.auditDemand(evp)
	}
	if e.tracker != nil {
		e.tracker.Observe(frame, now, block, hit, missKind, victimValid)
	}
	if e.dec != nil {
		e.syncRefs()
		e.dec.OnAccess(evp)
	}
	if e.pf != pfNone {
		switch e.pf {
		case pfTK:
			e.tk.OnAccess(evp)
		case pfDBCP:
			e.dbcp.OnAccess(evp)
		case pfNL:
			e.nl.OnAccess(evp)
		}
		e.issuePrefetches(now)
	}
	return doneAt
}

// emitAccess records a demand access as a Hit, or as the Fill that opens
// a generation (carrying its miss class).
func (e *Engine) emitAccess(now, block uint64, frame int, hit bool, doneAt uint64, kind classify.MissKind) {
	ev := events.Event{Kind: events.Hit, Cycle: now, Block: block, Frame: int32(frame), A: doneAt}
	if !hit {
		ev.Kind, ev.B = events.Fill, uint64(kind)
	}
	e.syncRefs()
	e.events.Emit(ev)
}

// auditDemand reports a demand access, and the L2 operation its miss
// performed if any, to the auditor through the engine-owned copies.
func (e *Engine) auditDemand(ev *hier.AccessEvent) {
	e.audEv = *ev
	var l2 *hier.L2Op
	if e.audL2On {
		l2, e.audL2On = &e.audL2, false
	}
	e.audit.AuditDemand(&e.audEv, l2)
}

// observe is the tail of an access, as access inlines it: the per-frame
// counter hardware update, then the observers in reference attachment
// order — tracker, decay, then the prefetcher — all as direct concrete
// calls.
func (e *Engine) observe(frame int, now, block uint64, hit bool, missKind classify.MissKind, victimValid bool, evp *hier.AccessEvent) {
	fc := &e.fctr[frame]
	if hit {
		fc.hits++
		if fc.prefetched {
			fc.prefetched = false
			e.stats.PFUseful++
			e.pfUsefulN++
		}
		if now > fc.lastAccess {
			fc.lastAccess = now
		}
	} else {
		fc.loadedAt = now
		fc.hits = 0
		fc.prefetched = false
		fc.lastAccess = now
	}

	if e.tracker != nil {
		e.tracker.Observe(frame, now, block, hit, missKind, victimValid)
	}
	if e.dec != nil {
		e.syncRefs()
		e.dec.OnAccess(evp)
	}
	if e.pf != pfNone {
		switch e.pf {
		case pfTK:
			e.tk.OnAccess(evp)
		case pfDBCP:
			e.dbcp.OnAccess(evp)
		case pfNL:
			e.nl.OnAccess(evp)
		}
		e.issuePrefetches(now)
	}
}

// accessFunctional transcribes hier.Hierarchy.AccessFunctional: contents,
// per-frame counters, observers and prefetch issue update exactly as on
// the detailed path, but there is no MSHR merging and misses complete
// instantly (Done == Now).
func (e *Engine) accessFunctional(r *trace.Ref, now uint64) {
	if now > e.maxNow {
		e.maxNow = now
	}
	if e.events != nil {
		e.evRefs++
	}
	if len(e.pending) > 0 {
		e.applyPendingFills(e.maxNow)
	}

	block := e.l1.blockAddr(r.Addr)
	write := r.Kind == trace.Store
	e.stats.Accesses++

	hit, frame, resVictim := e.l1.access(r.Addr, write)

	var ev hier.AccessEvent
	evp := (*hier.AccessEvent)(nil)
	if e.needEvent {
		ev = hier.AccessEvent{
			Now:   now,
			Done:  now,
			Addr:  r.Addr,
			Block: block,
			PC:    r.PC,
			Frame: frame,
			Write: write,
			SW:    r.Kind == trace.SWPrefetch,
			Hit:   hit,
		}
		evp = &ev
	}

	var missKind classify.MissKind
	victimValid := false
	if hit {
		e.stats.Hits++
	} else {
		missKind = e.missFunctional(block, write, now, frame, resVictim, evp)
		victimValid = resVictim.Valid
	}
	if e.traced(frame) {
		e.emitAccess(now, block, frame, hit, now, missKind)
	}
	e.observe(frame, now, block, hit, missKind, victimValid, evp)
}

// missFunctional transcribes hier.Hierarchy.missFunctional: eviction and
// victim-cache interposition as in miss, cold-only classification (the
// shadow cache's LRU order is not maintained, so a non-cold miss is
// Unclassified), and a straight L2 array access with no MSHR, bus or
// memory timing. It returns the miss kind.
func (e *Engine) missFunctional(block uint64, write bool, now uint64, frame int, resVictim cache.Victim, evp *hier.AccessEvent) classify.MissKind {
	e.stats.Misses++
	kind := classify.Unclassified
	if e.classifier.warm(block) {
		kind = classify.Cold
		e.stats.ColdMisses++
	}
	if evp != nil {
		evp.MissKind = kind
	}

	if resVictim.Valid {
		e.evict(block, now, frame, resVictim, evp)
		if resVictim.Dirty {
			e.stats.Writebacks++
		}
	}

	if e.victim != nil && e.lookupVictim(block, now) {
		if evp != nil {
			evp.VictimHit = true
		}
		e.stats.VictimHits++
		return kind
	}

	if e.cfg.Hier.PerfectL1 && kind != classify.Cold {
		return kind
	}

	l2hit, _, l2victim := e.l2.access(block, write)
	if l2hit {
		e.stats.L2Hits++
	} else {
		e.stats.L2Misses++
		if l2victim.Valid && l2victim.Dirty {
			e.stats.L2Writebacks++
		}
	}
	return kind
}

// evict reports a demand miss's displaced L1 block: it goes on the access
// event and, with the frame's dead time, to offer (the Evict event and
// the victim cache).
func (e *Engine) evict(block, now uint64, frame int, resVictim cache.Victim, evp *hier.AccessEvent) {
	fc := &e.fctr[frame]
	var dead uint64
	if now > fc.lastAccess {
		dead = now - fc.lastAccess
	}
	if fc.lastAccess == 0 && fc.loadedAt == 0 {
		dead = 0 // frame never used before
	}
	if evp != nil {
		evp.Victim = resVictim
	}
	if e.victim != nil || e.traced(frame) {
		e.offer(hier.Eviction{
			Now:      now,
			Victim:   resVictim,
			Frame:    frame,
			Incoming: block,
			DeadTime: dead,
			ZeroLive: fc.hits == 0,
		})
	}
}

// lookupVictim consults the victim cache, which may emit a VictimHit.
func (e *Engine) lookupVictim(block, now uint64) bool {
	e.syncRefs()
	return e.victim.Lookup(block, now)
}

// offer records an L1 eviction's Evict event, then presents the eviction
// to the victim cache.
func (e *Engine) offer(ev hier.Eviction) {
	if e.traced(ev.Frame) {
		e.syncRefs()
		e.events.Emit(events.Event{Kind: events.Evict, Cycle: ev.Now, Block: ev.Victim.Addr, Frame: int32(ev.Frame), A: ev.DeadTime, B: ev.Flags()})
	}
	if e.victim != nil {
		e.syncRefs()
		e.victim.Offer(ev)
	}
}

// miss transcribes hier.Hierarchy.miss.
func (e *Engine) miss(block uint64, kind classify.MissKind, write bool, now uint64, frame int, resVictim cache.Victim, evp *hier.AccessEvent) uint64 {
	e.stats.Misses++
	if evp != nil {
		evp.MissKind = kind
	}
	switch kind {
	case classify.Cold:
		e.stats.ColdMisses++
	case classify.Conflict:
		e.stats.ConflMiss++
	case classify.Capacity:
		e.stats.CapMiss++
	}

	if resVictim.Valid {
		e.evict(block, now, frame, resVictim, evp)
		if resVictim.Dirty {
			e.stats.Writebacks++
			e.busL2.Demand(now, e.cfg.Hier.L1.BlockBytes)
		}
	}

	if e.victim != nil && e.lookupVictim(block, now) {
		if evp != nil {
			evp.VictimHit = true
		}
		e.stats.VictimHits++
		return now + e.cfg.Hier.L1HitLat + 1
	}

	if e.cfg.Hier.PerfectL1 && kind != classify.Cold {
		return now + e.cfg.Hier.L1HitLat
	}

	start := e.demandMSHR.allocate(now + e.cfg.Hier.L1HitLat)
	_, busDone := e.busL2.Demand(start, e.cfg.Hier.L1.BlockBytes)
	l2hit, _, l2victim := e.l2.access(block, write)
	if e.audit != nil {
		e.audL2 = hier.L2Op{Block: block, Write: write, Hit: l2hit, Victim: l2victim}
		e.audL2On = true
	}
	var done uint64
	if l2hit {
		e.stats.L2Hits++
		done = busDone + e.cfg.Hier.L2Lat
	} else {
		e.stats.L2Misses++
		_, memBusDone := e.busMem.Demand(busDone+e.cfg.Hier.L2Lat, e.cfg.Hier.L2.BlockBytes)
		done = e.mem.Access(memBusDone)
		if l2victim.Valid && l2victim.Dirty {
			e.stats.L2Writebacks++
			e.busMem.Demand(done, e.cfg.Hier.L2.BlockBytes)
		}
	}
	e.demandMSHR.commit(block, done)
	// The occupancy mark belongs to no set, so any set filter drops it.
	if e.events != nil && e.evFrames == nil {
		e.syncRefs()
		e.events.Emit(events.Event{Kind: events.MSHR, Cycle: now, Frame: -1, A: uint64(e.demandMSHR.n), B: uint64(e.cfg.Hier.DemandMSHRs)})
	}
	return done
}

// due dispatches the prefetcher's Due via the devirtualized enum.
func (e *Engine) due(now uint64, max int) []hier.PrefetchRequest {
	switch e.pf {
	case pfTK:
		return e.tk.Due(now, max)
	case pfDBCP:
		return e.dbcp.Due(now, max)
	case pfNL:
		return e.nl.Due(now, max)
	}
	return nil
}

// filled dispatches the prefetcher's Filled via the devirtualized enum.
func (e *Engine) filled(req hier.PrefetchRequest, at uint64, frame int, v cache.Victim) {
	switch e.pf {
	case pfTK:
		e.tk.Filled(req, at, frame, v)
	case pfDBCP:
		e.dbcp.Filled(req, at, frame, v)
	case pfNL:
		e.nl.Filled(req, at, frame, v)
	}
}

// issuePrefetches transcribes hier.Hierarchy.issuePrefetches.
func (e *Engine) issuePrefetches(now uint64) {
	if e.prefetchMSHR == nil {
		return
	}
	slots := e.cfg.Hier.PrefetchMSHRs - e.prefetchMSHR.inFlight(now)
	if slots <= 0 {
		return
	}
	const prefetchBusLag = 4
	if !e.busL2.CanPrefetch(e.maxNow, prefetchBusLag) {
		return
	}
	for _, req := range e.due(now, slots) {
		if _, hit := e.l1.Probe(req.Block); hit {
			continue
		}
		if e.findPending(req.Block) >= 0 {
			continue
		}
		if _, out := e.demandMSHR.outstanding(req.Block, now); out {
			continue
		}
		e.stats.Prefetches++
		e.pfIssuedN++
		_, busDone := e.busL2.Prefetch(now, e.cfg.Hier.L1.BlockBytes)
		l2hit, _, l2victim := e.l2.fill(req.Block)
		if e.audit != nil {
			e.audL2 = hier.L2Op{Block: req.Block, Fill: true, Hit: l2hit, Victim: l2victim}
			e.audit.AuditPrefetchIssue(now, &e.audL2)
		}
		var done uint64
		if l2hit {
			done = busDone + e.cfg.Hier.L2Lat
		} else {
			_, memBusDone := e.busMem.Prefetch(busDone+e.cfg.Hier.L2Lat, e.cfg.Hier.L2.BlockBytes)
			done = e.mem.Access(memBusDone)
		}
		e.prefetchMSHR.commit(req.Block, done)
		if e.events != nil {
			e.syncRefs()
			e.events.Emit(events.Event{Kind: events.PrefetchIssue, Cycle: now, Block: req.Block, Frame: -1, A: done, B: req.ID})
		}
		e.pending = append(e.pending, pendingFill{req: req, arriveAt: done})
	}
}

// findPending returns the index of the in-flight prefetch for block, or -1.
func (e *Engine) findPending(block uint64) int {
	for i := range e.pending {
		if e.pending[i].req.Block == block {
			return i
		}
	}
	return -1
}

// applyPendingFills installs prefetched blocks whose data has arrived.
func (e *Engine) applyPendingFills(now uint64) {
	for i := 0; i < len(e.pending); {
		if e.pending[i].arriveAt <= now {
			e.completePending(i)
		} else {
			i++
		}
	}
}

// completePending transcribes hier.Hierarchy.completePending.
func (e *Engine) completePending(i int) {
	p := e.pending[i]
	e.pending = append(e.pending[:i], e.pending[i+1:]...)

	hit, frame, resVictim := e.l1.fill(p.req.Block)
	if e.audit != nil {
		e.audit.AuditPrefetchFill(p.arriveAt, p.req.Block, !hit, resVictim)
	}
	if e.traced(frame) {
		installed := uint64(0)
		if !hit {
			installed = 1
		}
		e.syncRefs()
		e.events.Emit(events.Event{Kind: events.PrefetchFill, Cycle: p.arriveAt, Block: p.req.Block, Frame: int32(frame), A: installed, B: p.req.ID})
	}
	if !hit && resVictim.Valid {
		fc := &e.fctr[frame]
		var dead uint64
		if fc.lastAccess < p.arriveAt {
			dead = p.arriveAt - fc.lastAccess
		}
		if e.victim != nil || e.traced(frame) {
			e.offer(hier.Eviction{
				Now:      p.arriveAt,
				Victim:   resVictim,
				Frame:    frame,
				Incoming: p.req.Block,
				DeadTime: dead,
				ZeroLive: fc.hits == 0,
				Prefetch: true,
			})
		}
	}
	if !hit {
		fc := &e.fctr[frame]
		fc.loadedAt = p.arriveAt
		fc.hits = 0
		fc.lastAccess = p.arriveAt
		fc.prefetched = true
	}
	if e.pf != pfNone {
		var v cache.Victim
		if !hit {
			v = resVictim
		}
		e.filled(p.req, p.arriveAt, frame, v)
	}
}
