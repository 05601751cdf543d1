package engine

import (
	"timekeeping/internal/cache"
	"timekeeping/internal/obs"
)

// soaCache is the struct-of-arrays counterpart of cache.Cache: tags and
// LRU stamps in parallel arrays, valid/dirty state in word-level bitmaps.
// Its transition function is an exact transcription of cache.Cache —
// the differential gate proves identical contents and victims — with the
// per-access atomic observability increments replaced by plain local
// counters that flush to the shared obs registry once per batch.
type soaCache struct {
	cfg        cache.Config
	sets       uint64
	ways       int
	blockShift uint
	setBits    uint
	setMask    uint64

	tags  []uint64
	used  []uint64 // LRU stamps
	valid []uint64 // bitmap, one bit per frame
	dirty []uint64 // bitmap, one bit per frame
	stamp uint64

	// Local observability tallies, flushed in bulk (see flush).
	accesses, hits, misses, writebacks uint64
	ctr                                cache.Counters
}

func newSoaCache(cfg cache.Config, ctr cache.Counters) *soaCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	frames := cfg.Blocks()
	c := &soaCache{
		cfg:   cfg,
		sets:  cfg.Sets(),
		ways:  cfg.Ways,
		tags:  make([]uint64, frames),
		used:  make([]uint64, frames),
		valid: make([]uint64, (frames+63)/64),
		dirty: make([]uint64, (frames+63)/64),
		ctr:   ctr,
	}
	for s := cfg.BlockBytes; s > 1; s >>= 1 {
		c.blockShift++
	}
	for s := c.sets; s > 1; s >>= 1 {
		c.setBits++
	}
	c.setMask = c.sets - 1
	return c
}

// clone returns an independent copy of the cache's contents and LRU
// state. The unflushed local tallies stay with the original.
func (c *soaCache) clone() *soaCache {
	d := *c
	d.tags = append([]uint64(nil), c.tags...)
	d.used = append([]uint64(nil), c.used...)
	d.valid = append([]uint64(nil), c.valid...)
	d.dirty = append([]uint64(nil), c.dirty...)
	d.accesses, d.hits, d.misses, d.writebacks = 0, 0, 0, 0
	return &d
}

// flush drains the local observability tallies into the shared counters
// (amortising what the reference path pays as one atomic per access).
func (c *soaCache) flush() {
	addCounter(c.ctr.Accesses, &c.accesses)
	addCounter(c.ctr.Hits, &c.hits)
	addCounter(c.ctr.Misses, &c.misses)
	addCounter(c.ctr.Writebacks, &c.writebacks)
}

func addCounter(ctr *obs.Counter, n *uint64) {
	if *n > 0 {
		ctr.Add(*n)
		*n = 0
	}
}

// bit helpers (word-level bitmap state).
func getBit(words []uint64, i int) bool { return words[i>>6]>>(uint(i)&63)&1 != 0 }
func setBit(words []uint64, i int)      { words[i>>6] |= 1 << (uint(i) & 63) }
func clearBit(words []uint64, i int)    { words[i>>6] &^= 1 << (uint(i) & 63) }

// Config implements prefetch.L1View.
func (c *soaCache) Config() cache.Config { return c.cfg }

// NumFrames is the total frame count (sets x ways).
func (c *soaCache) NumFrames() int { return len(c.tags) }

// Set extracts the set index from a byte address.
func (c *soaCache) Set(addr uint64) uint64 { return (addr >> c.blockShift) & c.setMask }

// Tag extracts the tag from a byte address.
func (c *soaCache) Tag(addr uint64) uint64 { return addr >> c.blockShift >> c.setBits }

// FrameAddr implements prefetch.L1View.
func (c *soaCache) FrameAddr(frame int) (addr uint64, valid bool) {
	if !getBit(c.valid, frame) {
		return 0, false
	}
	set := uint64(frame) / uint64(c.ways)
	return (c.tags[frame]<<c.setBits | set) << c.blockShift, true
}

// Probe implements prefetch.L1View: residency without LRU side effects.
func (c *soaCache) Probe(addr uint64) (frame int, hit bool) {
	set := c.Set(addr)
	tag := c.Tag(addr)
	base := int(set) * c.ways
	for w := 0; w < c.ways; w++ {
		f := base + w
		if getBit(c.valid, f) && c.tags[f] == tag {
			return f, true
		}
	}
	return -1, false
}

func (c *soaCache) blockAddr(addr uint64) uint64 { return addr &^ (c.cfg.BlockBytes - 1) }

// access transcribes cache.Cache.Access. The direct-mapped case (the
// paper's L1) is specialised: one frame, no way loop, no branch ladder.
func (c *soaCache) access(addr uint64, write bool) (hit bool, frame int, victim cache.Victim) {
	set := (addr >> c.blockShift) & c.setMask
	tag := addr >> c.blockShift >> c.setBits
	c.stamp++
	c.accesses++

	if c.ways == 1 {
		f := int(set)
		word, bit := f>>6, uint(f)&63
		if c.valid[word]>>bit&1 != 0 {
			if c.tags[f] == tag {
				c.used[f] = c.stamp
				if write {
					c.dirty[word] |= 1 << bit
				}
				c.hits++
				return true, f, cache.Victim{}
			}
			c.misses++
			dirty := c.dirty[word]>>bit&1 != 0
			victim = cache.Victim{
				Valid: true,
				Addr:  (c.tags[f]<<c.setBits | set) << c.blockShift,
				Dirty: dirty,
			}
			if dirty {
				c.writebacks++
			}
		} else {
			c.misses++
			c.valid[word] |= 1 << bit
		}
		c.tags[f] = tag
		c.used[f] = c.stamp
		if write {
			c.dirty[word] |= 1 << bit
		} else {
			c.dirty[word] &^= 1 << bit
		}
		return false, f, victim
	}

	base := int(set) * c.ways
	for w := 0; w < c.ways; w++ {
		f := base + w
		if getBit(c.valid, f) && c.tags[f] == tag {
			c.used[f] = c.stamp
			if write {
				setBit(c.dirty, f)
			}
			c.hits++
			return true, f, cache.Victim{}
		}
	}
	c.misses++

	way := 0
	var best uint64 = ^uint64(0)
	for w := 0; w < c.ways; w++ {
		f := base + w
		if !getBit(c.valid, f) {
			way = w
			best = 0
			break
		}
		if c.used[f] < best {
			best = c.used[f]
			way = w
		}
	}
	f := base + way
	if getBit(c.valid, f) {
		dirty := getBit(c.dirty, f)
		victim = cache.Victim{
			Valid: true,
			Addr:  (c.tags[f]<<c.setBits | set) << c.blockShift,
			Dirty: dirty,
		}
		if dirty {
			c.writebacks++
		}
	}
	c.tags[f] = tag
	c.used[f] = c.stamp
	setBit(c.valid, f)
	if write {
		setBit(c.dirty, f)
	} else {
		clearBit(c.dirty, f)
	}
	return false, f, victim
}

// fill transcribes cache.Cache.Fill: a resident block counts an access
// and a hit but is not LRU-promoted; otherwise it behaves like a missing
// read access.
func (c *soaCache) fill(addr uint64) (hit bool, frame int, victim cache.Victim) {
	if f, ok := c.Probe(addr); ok {
		c.accesses++
		c.hits++
		return true, f, cache.Victim{}
	}
	return c.access(addr, false)
}
