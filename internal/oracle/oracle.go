// Package oracle is the correctness layer of the simulator: a small,
// obviously-correct functional re-implementation of the memory hierarchy
// (set-associative LRU L1/L2, no timing, no MSHRs, no predictors) plus a
// generation-lifetime bookkeeper, replayed in lockstep with the engine's
// timing model under sim.Options.Audit.
//
// The structure follows the two standard cross-validation patterns for
// cache simulators: CacheQuery-style differential testing of replacement
// behaviour against a naive functional model, and gem5's atomic-vs-timing
// split, where the functional model defines what the contents must be and
// the timing model only decides when. Because this simulator updates cache
// contents at access time (the functional-contents/annotated-timing
// split), the oracle can predict every hit/miss outcome and eviction
// choice exactly; any disagreement is a bug in one of the models and
// aborts the run at the first diverging reference.
package oracle

import (
	"timekeeping/internal/cache"
	"timekeeping/internal/trace"
)

// Evicted describes the block an oracle fill displaced. It mirrors
// cache.Victim so the two models' eviction choices can be compared
// field-for-field.
type Evicted struct {
	Valid bool
	Addr  uint64 // block-aligned
	Dirty bool
}

// line is one resident block in an oracle set.
type line struct {
	block uint64
	dirty bool
}

// Cache is the functional reference model: per-set recency lists with
// true-LRU replacement, no timing state at all. It reproduces the exact
// contents semantics of internal/cache:
//
//   - Access hit: promote to MRU, or-in the dirty bit on writes.
//   - Access miss: evict the LRU way only when the set is full, install
//     the block at MRU with dirty = write.
//   - Fill hit: no promotion, no dirty change (a prefetch finding the
//     block resident is a no-op).
//   - Fill miss: install clean, like a read Access.
//
// Construct with NewCache.
type Cache struct {
	blockMask uint64
	shift     uint
	setMask   uint64
	ways      int
	sets      [][]line // each set ordered MRU-first
}

// NewCache builds the functional model for a validated geometry; it panics
// on an invalid one, like cache.New.
func NewCache(cfg cache.Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{
		blockMask: ^(cfg.BlockBytes - 1),
		setMask:   cfg.Sets() - 1,
		ways:      cfg.Ways,
		sets:      make([][]line, cfg.Sets()),
	}
	for s := cfg.BlockBytes; s > 1; s >>= 1 {
		c.shift++
	}
	return c
}

// BlockAddr returns addr rounded down to its block boundary.
func (c *Cache) BlockAddr(addr uint64) uint64 { return addr & c.blockMask }

func (c *Cache) set(block uint64) int { return int((block >> c.shift) & c.setMask) }

// find returns the position of block in its set, or -1.
func find(set []line, block uint64) int {
	for i := range set {
		if set[i].block == block {
			return i
		}
	}
	return -1
}

// Access performs a demand load or store and reports whether it hit and
// which block, if any, the fill displaced.
func (c *Cache) Access(addr uint64, write bool) (hit bool, victim Evicted) {
	block := c.BlockAddr(addr)
	s := c.set(block)
	set := c.sets[s]
	if i := find(set, block); i >= 0 {
		l := set[i]
		l.dirty = l.dirty || write
		copy(set[1:i+1], set[:i])
		set[0] = l
		return true, Evicted{}
	}
	return false, c.install(s, line{block: block, dirty: write})
}

// Fill installs a block the way a prefetch does: a resident block is left
// untouched (no LRU promotion, no dirty change); otherwise the block is
// installed clean. It reports whether the block was already resident.
func (c *Cache) Fill(addr uint64) (hit bool, victim Evicted) {
	block := c.BlockAddr(addr)
	s := c.set(block)
	if find(c.sets[s], block) >= 0 {
		return true, Evicted{}
	}
	return false, c.install(s, line{block: block})
}

// install places l at the MRU position of set s, evicting the LRU entry
// when the set is full.
func (c *Cache) install(s int, l line) Evicted {
	set := c.sets[s]
	var v Evicted
	if len(set) == c.ways {
		lru := set[len(set)-1]
		v = Evicted{Valid: true, Addr: lru.block, Dirty: lru.dirty}
		set = set[:len(set)-1]
	}
	c.sets[s] = append(set, line{})
	copy(c.sets[s][1:], c.sets[s][:len(c.sets[s])-1])
	c.sets[s][0] = l
	return v
}

// Probe reports residency without touching recency state.
func (c *Cache) Probe(addr uint64) bool {
	block := c.BlockAddr(addr)
	return find(c.sets[c.set(block)], block) >= 0
}

// Len returns the number of resident blocks (for tests).
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.sets {
		n += len(s)
	}
	return n
}

// Replay drives up to n references of a stream through a stand-alone
// functional cache and returns the access and miss counts — the primitive
// the metamorphic suite builds on (e.g. "a larger same-associativity LRU
// cache never misses more on the same trace").
func Replay(s trace.Stream, cfg cache.Config, n uint64) (accesses, misses uint64) {
	c := NewCache(cfg)
	var r trace.Ref
	for accesses < n && s.Next(&r) {
		hit, _ := c.Access(r.Addr, r.Kind == trace.Store)
		accesses++
		if !hit {
			misses++
		}
	}
	return accesses, misses
}
