package core

import (
	"timekeeping/internal/classify"
	"timekeeping/internal/hashtab"
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

	// hist maps block address to history: an insert-only table, like the
	// reference Tracker's map, whose slots are allocated on the first
	// miss, so a tracker that takes over a finished one's (TakeTable)
	// allocates none, and whose first grow goes to the size that holds
	// the blocks the run is expected to touch (ExpectBlocks).
	hist hashtab.Table[bhSlot]

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
		hist: hashtab.New[bhSlot](histInitial),
	}
	t.bindMetrics()
	return t
}

// TakeTable gives t donor's block-history table, cleared, when it is
// larger than t's own: a segmented run's fork takes over a finished
// segment's table instead of growing its own from the first size. t must
// not have observed an access, and donor must observe none again.
func (t *FastTracker) TakeTable(donor *FastTracker) {
	t.hist.Take(&donor.hist)
}

// ExpectBlocks tells t that its run touches at most n distinct L1
// blocks, so the history table's first grow goes straight to their size
// (hashtab.Table.Expect); 0 leaves it doubling from its first size. The
// count sizes the table and changes no metric.
func (t *FastTracker) ExpectBlocks(n int) { t.hist.Expect(n) }

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

	bh, hi, _ := t.hist.Put(block)
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
	// case fall back to a fresh probe.
	bh := t.hist.At(g.hSlot, g.block)
	if bh == nil {
		bh, _, _ = t.hist.Put(g.block)
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
// and the subsequent field accesses share a cache line: three words, and
// the table's key makes four, two slots per 64-byte line.
type bhSlot struct {
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

// histInitial is the table's first size in slots: a mid-size working
// set, since the table is the hot path's main DRAM target and early
// doublings rehash every slot. It holds 12,288 blocks under 3/4 load,
// more than the 11.1K that 25K references of any benchmark bench touch
// (mcf's), so a short run never grows its table; a longer one grows it
// once, to the size ExpectBlocks names.
const histInitial = 1 << 14

// Touch reads the block's home slot so the cache line is warm before
// Observe probes it. Purely a read — no result depends on it — so a
// stale touch (the table grew in between) is merely a wasted load.
func (t *FastTracker) Touch(block uint64) uint64 {
	return t.hist.Touch(hashtab.Hash(block))
}

// HistFootprint returns the block-history table's size in bytes, used by
// the engine to decide whether prefetch-touching its lines is worthwhile.
func (t *FastTracker) HistFootprint() int { return t.hist.Bytes() }
