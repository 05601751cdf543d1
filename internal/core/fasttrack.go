package core

import (
	"timekeeping/internal/classify"
	"timekeeping/internal/stats"
)

// FastTracker is the cache-friendly counterpart of Tracker used by the
// batched execution engine (internal/engine). It accumulates the exact
// same Metrics — the differential engine gate proves byte-identical
// results — but keeps each frame's generation counters in one contiguous
// struct (one cache line per access instead of one per parallel array)
// and replaces the per-block history map with an open-addressed,
// insert-only hash table of inline slots, removing the pointer chase and
// map overhead from the per-reference hot path.
//
// It lives in package core because Metrics' decay tallies are unexported:
// both trackers write the same accumulator type directly.
//
// FastTracker deliberately has no OnGeneration hook; runs that install
// one use the reference Tracker (the engine falls back).
type FastTracker struct {
	m *Metrics

	// Per-frame generation state (frameGen, inline).
	gens []fastGen

	hist blockHistTable

	// By-kind histograms lifted out of Metrics' maps: Observe indexes by
	// MissKind instead of hashing it, and a nil entry stands for a kind the
	// map lacks. Rebuilt whenever m is replaced.
	reloadBy [classify.NumKinds]*stats.Hist
	deadBy   [classify.NumKinds]*stats.Hist

	quiet bool
}

// fastGen is one frame's open generation: the same fields Tracker keeps
// per frame, packed so Observe touches a single cache line.
type fastGen struct {
	block      uint64
	startAt    uint64
	lastAccess uint64
	lastHit    uint64
	hits       uint64
	maxAI      uint64
	hSlot      uint32 // block's history-table slot when installed
	valid      bool
}

// NewFastTracker returns a fast tracker for an L1 with `frames` frames.
func NewFastTracker(frames int) *FastTracker {
	t := &FastTracker{
		m:    NewMetrics(),
		gens: make([]fastGen, frames),
	}
	t.bindMetrics()
	return t
}

// TakeTable gives t donor's block-history table, cleared, when it is
// larger than t's own: a segmented run's fork takes over a finished
// segment's table instead of growing its own from the first size. t must
// not have observed an access, and donor must observe none again.
func (t *FastTracker) TakeTable(donor *FastTracker) {
	t.hist.take(&donor.hist)
}

// bindMetrics refreshes the by-kind histogram arrays from t.m.
func (t *FastTracker) bindMetrics() {
	t.reloadBy = [classify.NumKinds]*stats.Hist{}
	t.deadBy = [classify.NumKinds]*stats.Hist{}
	for k, h := range t.m.ReloadByKind {
		t.reloadBy[k] = h
	}
	for k, h := range t.m.DeadByKind {
		t.deadBy[k] = h
	}
}

// Metrics returns the accumulated metrics.
func (t *FastTracker) Metrics() *Metrics { return t.m }

// Reset clears accumulated statistics but keeps per-frame and per-block
// context (same contract as Tracker.Reset).
func (t *FastTracker) Reset() {
	t.m = NewMetrics()
	t.bindMetrics()
}

// SetRecording toggles metric accumulation (same contract as
// Tracker.SetRecording).
func (t *FastTracker) SetRecording(on bool) { t.quiet = !on }

// Observe processes one L1 access: the same arithmetic as
// Tracker.OnAccess, taking raw fields instead of a *hier.AccessEvent so
// the engine does not materialise an event struct per reference.
// missKind is ignored for hits; victimValid reports whether the miss
// evicted a valid resident.
func (t *FastTracker) Observe(frame int, now, block uint64, hit bool, missKind classify.MissKind, victimValid bool) {
	g := &t.gens[frame]
	if hit {
		if g.valid {
			ai := sub(now, g.lastAccess)
			if !t.quiet {
				t.m.AccInt.Add(ai)
			}
			if ai > g.maxAI {
				g.maxAI = ai
			}
			g.hits++
			if now > g.lastHit {
				g.lastHit = now
			}
			if now > g.lastAccess {
				g.lastAccess = now
			}
		}
		return
	}

	if g.valid && victimValid {
		t.endGeneration(g, now)
	}

	bh, hi := t.hist.get(block)
	if !t.quiet {
		if bh.lastStart > 0 && now > bh.lastStart {
			reload := now - bh.lastStart
			t.m.Reload.Add(reload)
			if h := t.reloadBy[missKind]; h != nil {
				h.Add(reload)
			}
		}
		if bh.live != liveNone && (missKind == classify.Conflict || missKind == classify.Capacity) {
			if h := t.deadBy[missKind]; h != nil {
				h.Add(bh.prevDead)
			}
			prevZero := bh.live == liveNoHits
			t.m.ZeroLive.Record(prevZero, prevZero && missKind == classify.Conflict)
		}
	}
	bh.lastStart = now

	g.block = block
	g.startAt = now
	g.lastAccess = now
	g.lastHit = now
	g.hits = 0
	g.maxAI = 0
	g.hSlot = hi
	g.valid = true
}

// endGeneration closes the frame's current generation at evict time —
// the exact arithmetic of Tracker.endGeneration.
func (t *FastTracker) endGeneration(g *fastGen, now uint64) {
	startAt := g.startAt
	hits := g.hits
	maxAI := g.maxAI
	var liveTime, deadTime uint64
	if hits > 0 {
		liveTime = sub(g.lastHit, startAt)
		deadTime = sub(now, g.lastHit)
	} else {
		deadTime = sub(now, startAt)
	}
	genTime := sub(now, startAt)

	if !t.quiet {
		t.m.Generations++
		t.m.Live.Add(liveTime)
		t.m.Dead.Add(deadTime)
		for i, th := range DecayThresholds {
			if maxAI > th {
				t.m.decay[i].made++
			} else if deadTime > th {
				t.m.decay[i].made++
				t.m.decay[i].correct++
			} else {
				break // thresholds ascend: no later tally changes either
			}
		}
	}

	// The block's slot was cached at install time; a table grow since
	// then relocated it (the slot no longer holds this block), in which
	// case fall back to a fresh probe. The table stores each block at
	// most once, so a slot holding a nonzero block is authoritative;
	// block 0 lives out of band, and the table may have no slots yet.
	bh := &t.hist.zero
	if g.block != 0 {
		bh = &t.hist.slots[g.hSlot]
		if bh.block != g.block {
			bh, _ = t.hist.get(g.block)
		}
	}
	if !t.quiet {
		qlt := liveTime &^ (LiveTimeResolution - 1)
		if bh.live != liveNone {
			prevLive := bh.prevLive()
			t.m.LiveDiff.Add(liveTime, prevLive)
			t.m.LiveRatio.Add(qlt, prevLive&^(LiveTimeResolution-1))
			predictAt := LiveTimeScale * prevLive
			made := genTime > predictAt
			correct := made && liveTime <= predictAt
			t.m.LivePred.Record(made, correct)
		} else {
			t.m.LivePred.Events++
		}
	}
	bh.prevDead = deadTime
	if hits == 0 {
		bh.live = liveNoHits
	} else {
		bh.live = liveTime + liveBias
	}
}

// Encodings of bhSlot.live.
const (
	liveNone   = 0 // no completed generation yet
	liveNoHits = 1 // the previous generation was never hit
	liveBias   = 2 // live = previous live time + liveBias otherwise
)

// bhSlot is one block's history, stored inline in the table so a probe
// and the subsequent field accesses share a cache line: four words, two
// slots per 64-byte line.
type bhSlot struct {
	block     uint64 // 0 marks an empty slot
	lastStart uint64
	// live folds the reference Tracker's hasGen, hasLive and prevZero
	// flags into the previous live time (see liveNone..liveBias): the two
	// has-flags are always set together, and a generation that was never
	// hit has zero live time.
	live     uint64
	prevDead uint64
}

// prevLive decodes the previous generation's live time; it is meaningful
// only when live != liveNone.
func (s *bhSlot) prevLive() uint64 {
	if s.live < liveBias {
		return 0
	}
	return s.live - liveBias
}

// blockHistTable is an insert-only open-addressed hash table from block
// address to history slot. Deletion never happens (the reference
// Tracker's map also only grows), so probing is plain linear scan. A
// zero key marks an empty slot, so block 0 — a valid address — keeps its
// history out of band in zero. The zero value has no slots; the first
// insert gives it histInitial, and the table doubles at 3/4 load.
type blockHistTable struct {
	slots []bhSlot
	mask  uint64
	n     int
	zero  bhSlot
}

// histInitial is the table's first size in slots: a mid-size working
// set, since the table is the hot path's main DRAM target and early
// doublings rehash every slot.
const histInitial = 1 << 14

// take moves d's slots into h, cleared, when they outnumber h's own; d is
// left with none. h must hold no block yet.
func (h *blockHistTable) take(d *blockHistTable) {
	if len(d.slots) <= len(h.slots) {
		return
	}
	clear(d.slots)
	*h = blockHistTable{slots: d.slots, mask: d.mask}
	*d = blockHistTable{}
}

// hashBlock mixes a block address into a table index (Fibonacci hashing;
// block addresses are block-aligned so low bits are constant zero).
func hashBlock(block uint64) uint64 {
	x := block * 0x9e3779b97f4a7c15
	return x ^ x>>32
}

// Touch reads the block's home slot so the cache line is warm before
// Observe probes it. Purely a read — no result depends on it — so a
// stale touch (the table grew in between) is merely a wasted load.
func (t *FastTracker) Touch(block uint64) uint64 {
	if t.hist.slots == nil {
		return 0
	}
	return t.hist.slots[hashBlock(block)&t.hist.mask].block
}

// HistFootprint returns the block-history table's size in bytes, used by
// the engine to decide whether prefetch-touching its lines is worthwhile.
func (t *FastTracker) HistFootprint() int {
	const slotBytes = 32 // bhSlot: four uint64
	return len(t.hist.slots) * slotBytes
}

// get returns the slot for block and its index, inserting a zeroed slot
// if absent. The pointer and index are valid until the next get (which
// may grow the table).
func (h *blockHistTable) get(block uint64) (*bhSlot, uint32) {
	if block == 0 {
		return &h.zero, 0
	}
	if h.n >= len(h.slots)-len(h.slots)/4 {
		h.grow()
	}
	i := hashBlock(block) & h.mask
	for {
		s := &h.slots[i]
		if s.block == 0 {
			s.block = block
			h.n++
			return s, uint32(i)
		}
		if s.block == block {
			return s, uint32(i)
		}
		i = (i + 1) & h.mask
	}
}

func (h *blockHistTable) grow() {
	old := h.slots
	c := max(2*len(old), histInitial)
	h.slots = make([]bhSlot, c)
	h.mask = uint64(c - 1)
	h.n = 0
	for i := range old {
		if old[i].block == 0 {
			continue
		}
		j := hashBlock(old[i].block) & h.mask
		for h.slots[j].block != 0 {
			j = (j + 1) & h.mask
		}
		h.slots[j] = old[i]
		h.n++
	}
}
