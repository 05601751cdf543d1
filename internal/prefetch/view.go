package prefetch

import (
	"math/bits"

	"timekeeping/internal/cache"
)

// L1View is the read-only window a prefetcher needs onto the L1: its
// geometry (read once, at construction) and its current contents (for
// next-line's tag maintenance). Both the reference *cache.Cache and the
// fast engine's struct-of-arrays L1 satisfy it, so one prefetcher
// implementation trains identically under either execution engine.
type L1View interface {
	// Config reports the cache geometry.
	Config() cache.Config
	// FrameAddr reconstructs the resident block address of a frame.
	FrameAddr(frame int) (addr uint64, valid bool)
	// Probe reports residency without touching replacement state.
	Probe(addr uint64) (frame int, hit bool)
}

var _ L1View = (*cache.Cache)(nil)

// addrSplit is an L1's address decomposition, fixed at construction so
// the per-access path splits addresses with shifts, not interface calls.
type addrSplit struct {
	blockShift uint
	setBits    uint
	setMask    uint64
	ways       int
	frames     int
}

func newAddrSplit(c cache.Config) addrSplit {
	// Validated geometries have power-of-two block sizes and set counts.
	return addrSplit{
		blockShift: uint(bits.TrailingZeros64(c.BlockBytes)),
		setBits:    uint(bits.TrailingZeros64(c.Sets())),
		setMask:    c.Sets() - 1,
		ways:       c.Ways,
		frames:     int(c.Blocks()),
	}
}

// set extracts the set index from a byte address.
func (s addrSplit) set(addr uint64) uint64 { return (addr >> s.blockShift) & s.setMask }

// tag extracts the tag from a byte address.
func (s addrSplit) tag(addr uint64) uint64 { return addr >> s.blockShift >> s.setBits }

// blockOf reconstructs a block address from a (tag, set) pair ("the index
// is implied and is the same as in A and B").
func (s addrSplit) blockOf(tag, set uint64) uint64 {
	return (tag<<s.setBits | set) << s.blockShift
}
