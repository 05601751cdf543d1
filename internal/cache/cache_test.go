package cache

import (
	"testing"
	"testing/quick"

	"timekeeping/internal/rng"
)

func smallCache(t *testing.T, bytes, block uint64, ways int) *Cache {
	t.Helper()
	return New(Config{Name: "t", Bytes: bytes, BlockBytes: block, Ways: ways})
}

func TestConfigValidate(t *testing.T) {
	good := Config{Name: "l1", Bytes: 32 << 10, BlockBytes: 32, Ways: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Bytes: 32 << 10, BlockBytes: 33, Ways: 1},    // block not pow2
		{Bytes: 32 << 10, BlockBytes: 32, Ways: 0},    // no ways
		{Bytes: 100, BlockBytes: 32, Ways: 1},         // not divisible
		{Bytes: 3 * 32 * 32, BlockBytes: 32, Ways: 1}, // sets not pow2
		{Bytes: 0, BlockBytes: 32, Ways: 1},           // empty
		{Bytes: 32 << 10, BlockBytes: 0, Ways: 1},     // zero block
		{Bytes: 32 * 32 * 3, BlockBytes: 32, Ways: 2}, // sets not pow2 (48)
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d validated: %+v", i, cfg)
		}
	}
}

func TestConfigDerived(t *testing.T) {
	cfg := Config{Bytes: 32 << 10, BlockBytes: 32, Ways: 1}
	if cfg.Sets() != 1024 || cfg.Blocks() != 1024 {
		t.Fatalf("sets=%d blocks=%d", cfg.Sets(), cfg.Blocks())
	}
	cfg4 := Config{Bytes: 1 << 20, BlockBytes: 64, Ways: 4}
	if cfg4.Sets() != 4096 || cfg4.Blocks() != 16384 {
		t.Fatalf("L2 sets=%d blocks=%d", cfg4.Sets(), cfg4.Blocks())
	}
}

func TestAccessHitMiss(t *testing.T) {
	c := smallCache(t, 4*32, 32, 1) // 4 sets, direct-mapped
	r := c.Access(0x0, false)
	if r.Hit {
		t.Fatal("cold access hit")
	}
	if r.Victim.Valid {
		t.Fatal("cold fill evicted something")
	}
	r = c.Access(0x1f, false) // same block
	if !r.Hit {
		t.Fatal("same-block access missed")
	}
	r = c.Access(0x20, false) // next block, different set
	if r.Hit {
		t.Fatal("different block hit")
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := smallCache(t, 4*32, 32, 1)
	c.Access(0x000, false)
	r := c.Access(0x080, false) // 4 sets * 32B = 128 = 0x80 apart: same set
	if r.Hit {
		t.Fatal("conflicting block hit")
	}
	if !r.Victim.Valid || r.Victim.Addr != 0x000 {
		t.Fatalf("victim = %+v, want block 0", r.Victim)
	}
	r = c.Access(0x000, false)
	if r.Hit {
		t.Fatal("evicted block still resident")
	}
}

func TestLRUReplacement(t *testing.T) {
	c := smallCache(t, 4*32*2, 32, 2) // 4 sets, 2-way
	// Three blocks mapping to set 0: 0x000, 0x100, 0x200.
	c.Access(0x000, false)
	c.Access(0x100, false)
	c.Access(0x000, false) // touch 0 again; 0x100 now LRU
	r := c.Access(0x200, false)
	if r.Hit || !r.Victim.Valid || r.Victim.Addr != 0x100 {
		t.Fatalf("LRU victim = %+v, want 0x100", r.Victim)
	}
	if _, hit := c.Probe(0x000); !hit {
		t.Fatal("MRU block evicted")
	}
}

func TestDirtyVictim(t *testing.T) {
	c := smallCache(t, 4*32, 32, 1)
	c.Access(0x000, true) // store: dirty
	r := c.Access(0x080, false)
	if !r.Victim.Valid || !r.Victim.Dirty {
		t.Fatalf("dirty victim not reported: %+v", r.Victim)
	}
	// A clean block produces a clean victim.
	r = c.Access(0x100, false)
	if !r.Victim.Valid || r.Victim.Dirty {
		t.Fatalf("clean victim misreported: %+v", r.Victim)
	}
}

func TestWriteHitSetsDirty(t *testing.T) {
	c := smallCache(t, 4*32, 32, 1)
	c.Access(0x000, false)
	c.Access(0x000, true) // write hit dirties the line
	r := c.Access(0x080, false)
	if !r.Victim.Dirty {
		t.Fatal("write hit did not dirty the line")
	}
}

func TestProbeDoesNotTouchLRU(t *testing.T) {
	c := smallCache(t, 32*2, 32, 2) // 1 set, 2-way
	c.Access(0x00, false)
	c.Access(0x20, false)
	// Probe the LRU block; it must remain LRU.
	if _, hit := c.Probe(0x00); !hit {
		t.Fatal("probe missed resident block")
	}
	r := c.Access(0x40, false)
	if r.Victim.Addr != 0x00 {
		t.Fatalf("probe disturbed LRU: victim %+v", r.Victim)
	}
}

func TestFillDoesNotPromote(t *testing.T) {
	c := smallCache(t, 32*2, 32, 2) // 1 set, 2-way
	c.Access(0x00, false)
	c.Access(0x20, false)
	// Fill of a resident block is a no-op.
	r := c.Fill(0x00)
	if !r.Hit {
		t.Fatal("fill of resident block reported miss")
	}
	r2 := c.Access(0x40, false)
	if r2.Victim.Addr != 0x00 {
		t.Fatalf("fill promoted line: victim %+v", r2.Victim)
	}
	// Fill of a new block installs it.
	r3 := c.Fill(0x60)
	if r3.Hit {
		t.Fatal("fill of new block reported hit")
	}
	if _, hit := c.Probe(0x60); !hit {
		t.Fatal("fill did not install block")
	}
}

func TestInvalidate(t *testing.T) {
	c := smallCache(t, 4*32, 32, 1)
	c.Access(0x00, true)
	present, dirty := c.Invalidate(0x00)
	if !present || !dirty {
		t.Fatalf("invalidate = %v,%v", present, dirty)
	}
	if _, hit := c.Probe(0x00); hit {
		t.Fatal("block survived invalidate")
	}
	present, _ = c.Invalidate(0x00)
	if present {
		t.Fatal("double invalidate reported present")
	}
}

func TestFrameAddr(t *testing.T) {
	c := smallCache(t, 4*32, 32, 1)
	r := c.Access(0x0badc0, false)
	addr, valid := c.FrameAddr(r.Frame)
	if !valid || addr != c.BlockAddr(0x0badc0) {
		t.Fatalf("FrameAddr = %#x,%v", addr, valid)
	}
	if _, valid := c.FrameAddr(0); valid && c.Set(0x0badc0) == 0 {
		// Only the filled frame should be valid in this tiny test.
		t.Log("frame 0 unexpectedly valid")
	}
}

func TestAddressMapping(t *testing.T) {
	c := smallCache(t, 32<<10, 32, 1) // paper L1: 1024 sets
	if c.BlockAddr(0x12345) != 0x12340 {
		t.Fatalf("BlockAddr = %#x", c.BlockAddr(0x12345))
	}
	if c.Set(0x0) != 0 || c.Set(32) != 1 || c.Set(32*1024) != 0 {
		t.Fatal("set mapping wrong")
	}
	if c.Tag(0x0) == c.Tag(32*1024) {
		t.Fatal("tags 32KB apart should differ")
	}
	if c.Tag(0x0) != c.Tag(0x1f) {
		t.Fatal("same-block tags differ")
	}
}

// Frames are laid out set-major: frame set*ways+way.
func TestFrameOfRoundTrip(t *testing.T) {
	const ways = 4
	c := smallCache(t, 1<<20, 64, ways)
	for _, set := range []uint64{0, 1, 4095} {
		for way := 0; way < ways; way++ {
			f := int(set)*ways + way
			if c.SetOfFrame(f) != set {
				t.Fatalf("SetOfFrame(%d*%d+%d) = %d", set, ways, way, c.SetOfFrame(f))
			}
		}
	}
}

// Property: the cache never holds two frames with the same block, and a
// just-accessed block is always resident.
func TestCacheCoherenceProperty(t *testing.T) {
	c := smallCache(t, 8*64*4, 64, 4)
	r := rng.New(5)
	f := func(steps uint8) bool {
		for i := 0; i < int(steps); i++ {
			addr := r.Uint64n(64 * 128)
			c.Access(addr, r.Bool(0.3))
			if _, hit := c.Probe(addr); !hit {
				return false
			}
		}
		// No duplicate tags within a set.
		seen := map[uint64]bool{}
		for fr := 0; fr < c.NumFrames(); fr++ {
			if addr, valid := c.FrameAddr(fr); valid {
				if seen[addr] {
					return false
				}
				seen[addr] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The cache contents must match a naive model over a random workload.
func TestCacheMatchesReferenceModel(t *testing.T) {
	const (
		sets  = 16
		ways  = 2
		block = 32
	)
	c := smallCache(t, sets*ways*block, block, ways)
	// Reference model: per set, list of (tag, lastUse).
	type ent struct {
		tag  uint64
		used int
	}
	ref := make([][]ent, sets)
	r := rng.New(77)
	for step := 1; step <= 20000; step++ {
		addr := r.Uint64n(block * sets * 16)
		got := c.Access(addr, false)

		set := (addr / block) % sets
		tag := addr / block / sets
		s := ref[set]
		hitIdx := -1
		for i := range s {
			if s[i].tag == tag {
				hitIdx = i
				break
			}
		}
		wantHit := hitIdx >= 0
		if got.Hit != wantHit {
			t.Fatalf("step %d addr %#x: hit=%v want %v", step, addr, got.Hit, wantHit)
		}
		if wantHit {
			s[hitIdx].used = step
			continue
		}
		if len(s) < ways {
			ref[set] = append(s, ent{tag, step})
			if got.Victim.Valid {
				t.Fatalf("step %d: victim from non-full set", step)
			}
			continue
		}
		lru := 0
		for i := range s {
			if s[i].used < s[lru].used {
				lru = i
			}
		}
		wantVictim := (s[lru].tag*sets + set) * block
		if !got.Victim.Valid || got.Victim.Addr != wantVictim {
			t.Fatalf("step %d: victim %#x want %#x", step, got.Victim.Addr, wantVictim)
		}
		s[lru] = ent{tag, step}
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with bad config did not panic")
		}
	}()
	New(Config{Bytes: 100, BlockBytes: 32, Ways: 1})
}
