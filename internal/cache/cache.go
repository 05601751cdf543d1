// Package cache implements the set-associative cache model the hierarchy
// is built from, plus the miss-status-holding-register (MSHR) file that
// bounds outstanding misses.
//
// The cache is a functional model with true LRU replacement: contents
// update at access time, and all timing (hit latency, bus occupancy, fill
// arrival) is handled by the hierarchy layer on top. This
// functional-contents/annotated-timing split is the standard structure of
// trace-driven cache simulators and is what the paper's own infrastructure
// (SimpleScalar's cache module) does.
package cache

import (
	"fmt"

	"timekeeping/internal/obs"
)

// Config sizes a cache.
type Config struct {
	Name       string
	Bytes      uint64 // total capacity
	BlockBytes uint64 // line size, power of two
	Ways       int    // associativity; 1 = direct-mapped
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.BlockBytes == 0 || c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("cache %s: block size %d not a power of two", c.Name, c.BlockBytes)
	}
	if c.Ways < 1 {
		return fmt.Errorf("cache %s: ways %d < 1", c.Name, c.Ways)
	}
	if c.Bytes == 0 || c.Bytes%(c.BlockBytes*uint64(c.Ways)) != 0 {
		return fmt.Errorf("cache %s: capacity %d not divisible by way size", c.Name, c.Bytes)
	}
	sets := c.Bytes / c.BlockBytes / uint64(c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() uint64 { return c.Bytes / c.BlockBytes / uint64(c.Ways) }

// Blocks returns the total number of block frames.
func (c Config) Blocks() uint64 { return c.Bytes / c.BlockBytes }

// Counters are the per-level observability hooks a cache exports into a
// metrics registry (see internal/obs). Nil fields are valid no-ops, so an
// uninstrumented cache pays only untaken branches.
type Counters struct {
	// Accesses counts every array lookup: demand accesses and prefetch
	// fills alike.
	Accesses *obs.Counter
	Hits     *obs.Counter
	Misses   *obs.Counter
	// Writebacks counts dirty evictions (the blocks a real machine would
	// write back to the next level).
	Writebacks *obs.Counter
}

// line is one cache frame.
type line struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64 // LRU stamp
}

// Victim describes a block evicted by a fill.
type Victim struct {
	// Valid is false when the fill found an empty frame.
	Valid bool
	// Addr is the evicted block's address (block-aligned).
	Addr uint64
	// Dirty says the block must be written back.
	Dirty bool
}

// Result reports the outcome of an Access.
type Result struct {
	// Hit is true when the block was already resident.
	Hit bool
	// Frame is the frame index (set*ways + way) the block occupies after
	// the access.
	Frame int
	// Victim is the block displaced by a miss fill (zero Victim on hits
	// or fills into invalid frames).
	Victim Victim
}

// Cache is a set-associative cache with LRU replacement. Construct with
// New.
type Cache struct {
	cfg        Config
	sets       uint64
	ways       int
	blockShift uint
	setMask    uint64
	lines      []line
	stamp      uint64
	ctr        Counters
}

// New builds a cache from a validated configuration; it panics on an
// invalid one (configurations are static program data, not runtime input).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{
		cfg:   cfg,
		sets:  cfg.Sets(),
		ways:  cfg.Ways,
		lines: make([]line, cfg.Blocks()),
	}
	for s := cfg.BlockBytes; s > 1; s >>= 1 {
		c.blockShift++
	}
	c.setMask = c.sets - 1
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Instrument attaches cumulative counters (typically registered in an
// obs.Registry) that the cache bumps on every access. The counters are
// process-lifetime totals, independent of the measurement-window Stats the
// hierarchy keeps.
func (c *Cache) Instrument(ctr Counters) { c.ctr = ctr }

// BlockAddr returns addr rounded down to its block boundary.
func (c *Cache) BlockAddr(addr uint64) uint64 {
	return addr &^ (c.cfg.BlockBytes - 1)
}

// Set returns the set index addr maps to.
func (c *Cache) Set(addr uint64) uint64 { return (addr >> c.blockShift) & c.setMask }

// Tag returns addr's tag (the address bits above the index).
func (c *Cache) Tag(addr uint64) uint64 { return addr >> c.blockShift >> setBits(c.sets) }

// SetOfFrame returns the set a frame index belongs to.
func (c *Cache) SetOfFrame(frame int) uint64 { return uint64(frame) / uint64(c.ways) }

// FrameAddr reconstructs the block address resident in frame, and whether
// the frame holds valid data.
func (c *Cache) FrameAddr(frame int) (addr uint64, valid bool) {
	l := &c.lines[frame]
	if !l.valid {
		return 0, false
	}
	set := c.SetOfFrame(frame)
	return (l.tag<<setBits(c.sets) | set) << c.blockShift, true
}

// Access performs a load or store: on a hit it updates LRU (and the dirty
// bit for writes); on a miss it fills the block, evicting the LRU way, and
// reports the victim. Contents update immediately; timing is the caller's
// concern.
func (c *Cache) Access(addr uint64, write bool) Result {
	set := c.Set(addr)
	tag := c.Tag(addr)
	base := int(set) * c.ways
	c.stamp++
	c.ctr.Accesses.Inc()

	// Hit?
	for w := 0; w < c.ways; w++ {
		l := &c.lines[base+w]
		if l.valid && l.tag == tag {
			l.used = c.stamp
			if write {
				l.dirty = true
			}
			c.ctr.Hits.Inc()
			return Result{Hit: true, Frame: base + w}
		}
	}
	c.ctr.Misses.Inc()

	// Miss: pick victim (an invalid way, else LRU).
	way := 0
	var best uint64 = ^uint64(0)
	for w := 0; w < c.ways; w++ {
		l := &c.lines[base+w]
		if !l.valid {
			way = w
			best = 0
			break
		}
		if l.used < best {
			best = l.used
			way = w
		}
	}
	l := &c.lines[base+way]
	var v Victim
	if l.valid {
		v = Victim{
			Valid: true,
			Addr:  (l.tag<<setBits(c.sets) | set) << c.blockShift,
			Dirty: l.dirty,
		}
		if l.dirty {
			c.ctr.Writebacks.Inc()
		}
	}
	*l = line{tag: tag, valid: true, dirty: write, used: c.stamp}
	return Result{Hit: false, Frame: base + way, Victim: v}
}

// Fill installs a block without counting as a demand access — used for
// prefetch fills. It behaves like a missing Access except that if the
// block is already resident it does nothing (and reports Hit true without
// promoting the line in LRU order).
func (c *Cache) Fill(addr uint64) Result {
	set := c.Set(addr)
	tag := c.Tag(addr)
	base := int(set) * c.ways
	for w := 0; w < c.ways; w++ {
		l := &c.lines[base+w]
		if l.valid && l.tag == tag {
			c.ctr.Accesses.Inc()
			c.ctr.Hits.Inc()
			return Result{Hit: true, Frame: base + w}
		}
	}
	return c.Access(addr, false)
}

// Probe reports whether the block is resident, without touching LRU state.
func (c *Cache) Probe(addr uint64) (frame int, hit bool) {
	set := c.Set(addr)
	tag := c.Tag(addr)
	base := int(set) * c.ways
	for w := 0; w < c.ways; w++ {
		l := &c.lines[base+w]
		if l.valid && l.tag == tag {
			return base + w, true
		}
	}
	return -1, false
}

// Invalidate removes the block holding addr if present, returning whether
// it was present and dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	frame, hit := c.Probe(addr)
	if !hit {
		return false, false
	}
	l := &c.lines[frame]
	d := l.dirty
	*l = line{}
	return true, d
}

// NumFrames returns the number of frames.
func (c *Cache) NumFrames() int { return len(c.lines) }

// setBits returns log2(sets); sets is always a power of two.
func setBits(sets uint64) uint {
	var b uint
	for s := sets; s > 1; s >>= 1 {
		b++
	}
	return b
}
