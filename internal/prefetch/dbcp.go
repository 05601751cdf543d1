package prefetch

import (
	"fmt"

	"timekeeping/internal/cache"
	"timekeeping/internal/hier"
)

// DBCP is the baseline the paper compares against: the Dead-Block
// Correlating Prefetcher of Lai, Fide and Falsafi (ISCA 2001). Each L1
// frame accumulates a reference-trace signature — a hash chain of the PCs
// that touched the resident block since its fill. When a block dies, the
// signature it died with is recorded; when the same signature recurs and
// its confidence is high, the block is predicted dead on the spot and the
// correlated next block is prefetched immediately.
//
// The paper's DBCP uses a 2 MB correlation table; ours defaults to the
// same modelled budget (512K entries x 4 bytes). Its large size is what
// lets it cover mcf-scale footprints that thrash the 8 KB timekeeping
// table. On the host each entry is one 8-byte word (see dbcpWord).
type DBCP struct {
	cfg   Config
	split addrSplit
	mask  uint64

	entries []uint64 // packed correlation-table entries
	frames  []dbcpFrame
	eng     *engine
}

// A correlation-table entry packs into one word. From the low bit up: a
// 2-bit saturating confidence that the signature means death, a valid
// bit, and the L1 set and 32-bit tag of the block observed to follow the
// signature's death. The set field bounds the L1 at dbcpMaxSetBits.
const (
	dbcpConfMask   = 3
	dbcpValid      = 1 << 2
	dbcpSetShift   = 3
	dbcpTagShift   = 32
	dbcpMaxSetBits = dbcpTagShift - dbcpSetShift
)

// dbcpWord returns the valid, zero-confidence entry predicting the block
// at (tag, set); only the tag's low 32 bits are kept.
func dbcpWord(tag, set uint64) uint64 {
	return uint64(uint32(tag))<<dbcpTagShift | set<<dbcpSetShift | dbcpValid
}

// dbcpFrame is the per-frame trace state.
type dbcpFrame struct {
	sig    uint64 // trace signature of the resident block
	active bool
}

// DBCPEntries is the paper's 2 MB table at 4 bytes per modelled entry.
const DBCPEntries = 1 << 19

// NewDBCP builds a DBCP with the given entry count (a power of two). It
// panics on an L1 with more than dbcpMaxSetBits set bits, which a packed
// entry cannot name.
func NewDBCP(cfg Config, entries int, l1 L1View) *DBCP {
	if entries < 2 || entries&(entries-1) != 0 {
		panic(fmt.Sprintf("prefetch: DBCP entries %d must be a power of two >= 2", entries))
	}
	if cfg.QueueEntries < 1 {
		panic("prefetch: queue must have >= 1 entry")
	}
	split := newAddrSplit(l1.Config())
	if split.setBits > dbcpMaxSetBits {
		panic(fmt.Sprintf("prefetch: DBCP supports at most %d L1 set bits, got %d", dbcpMaxSetBits, split.setBits))
	}
	return &DBCP{
		cfg:     cfg,
		split:   split,
		mask:    uint64(entries - 1),
		entries: make([]uint64, entries),
		frames:  make([]dbcpFrame, split.frames),
		eng:     newEngine(split.frames, cfg.QueueEntries),
	}
}

// SizeBytes reports the modelled table budget: 4 bytes per entry, as in
// the paper's 2 MB configuration (the host spends 8 per entry).
func (p *DBCP) SizeBytes() int { return len(p.entries) * 4 }

// sigInit seeds a signature from the block identity.
func sigInit(block uint64) uint64 {
	x := block * 0x9e3779b97f4a7c15
	return x ^ x>>29
}

// sigStep extends a signature with one PC (truncated-addition style
// mixing, as in the DBCP paper).
func sigStep(sig uint64, pc uint32) uint64 {
	s := sig + uint64(pc)*0xbf58476d1ce4e5b9
	return s ^ s>>31
}

// OnAccess implements hier.Observer.
func (p *DBCP) OnAccess(ev *hier.AccessEvent) {
	f := &p.frames[ev.Frame]
	if ev.Hit {
		// A demand touch of a prefetched block finalises its record as
		// timely-correct.
		p.eng.onFrameHit(ev.Frame, ev.Block)
		if !f.active {
			return
		}
		// The block lived past its previous signature: that signature was
		// not a death point; decay its confidence.
		p.decay(f.sig)
		f.sig = sigStep(f.sig, ev.PC)
		p.maybePrefetch(ev, f)
		return
	}

	// Miss: the departing block died with signature f.sig. Train the
	// table: this signature means death, followed by the incoming block.
	p.eng.onFrameMiss(ev.Frame, ev.Block)
	if f.active && ev.Victim.Valid {
		e := &p.entries[f.sig&p.mask]
		next := dbcpWord(p.split.tag(ev.Addr), p.split.set(ev.Addr))
		if *e&^dbcpConfMask == next {
			if *e&dbcpConfMask < 3 {
				*e++
			}
		} else {
			*e = next | 1
		}
	}
	f.sig = sigStep(sigInit(ev.Block), ev.PC)
	f.active = true
	p.maybePrefetch(ev, f)
}

// decay weakens the confidence of a signature that proved non-final.
func (p *DBCP) decay(sig uint64) {
	e := &p.entries[sig&p.mask]
	if *e&dbcpValid != 0 && *e&dbcpConfMask > 0 {
		*e--
	}
}

// maybePrefetch predicts death at the current signature and, if confident,
// schedules an immediate prefetch of the correlated next block.
func (p *DBCP) maybePrefetch(ev *hier.AccessEvent, f *dbcpFrame) {
	e := p.entries[f.sig&p.mask]
	if e&dbcpValid == 0 || e&dbcpConfMask < 2 {
		return
	}
	target := p.split.blockOf(e>>dbcpTagShift, uint64(uint32(e))>>dbcpSetShift)
	if target == ev.Block {
		return
	}
	p.eng.schedule(ev.Frame, target, ev.Block, p.cfg.tickUp(ev.Now))
}

// Due implements hier.Prefetcher.
func (p *DBCP) Due(now uint64, max int) []hier.PrefetchRequest { return p.eng.due(now, max) }

// Filled implements hier.Prefetcher.
func (p *DBCP) Filled(req hier.PrefetchRequest, at uint64, frame int, victim cache.Victim) {
	// A prefetched block that is then demanded looks like a hit; start a
	// fresh signature for it so training continues.
	if p.eng.filled(req) {
		f := &p.frames[frame]
		f.sig = sigInit(req.Block)
		f.active = true
	}
}

// Timeliness returns the classification tallies.
func (p *DBCP) Timeliness() Timeliness { return p.eng.timeliness }

// Issued returns the number of prefetches handed to the hierarchy.
func (p *DBCP) Issued() uint64 { return p.eng.issued }

// ResetStats clears tallies (training state preserved).
func (p *DBCP) ResetStats() { p.eng.resetStats() }

// MergeStats folds another instance's tallies into p (pooling disjoint
// runs); training state on both sides is untouched.
func (p *DBCP) MergeStats(o *DBCP) { p.eng.mergeStats(o.eng) }
