package hier

import (
	"testing"

	"timekeeping/internal/cache"
	"timekeeping/internal/classify"
	"timekeeping/internal/trace"
)

func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.L1 = cache.Config{Name: "L1D", Bytes: 4 * 32, BlockBytes: 32, Ways: 1} // 4 sets
	cfg.L2 = cache.Config{Name: "L2", Bytes: 16 * 64, BlockBytes: 64, Ways: 2}
	return cfg
}

func load(addr uint64) trace.Ref  { return trace.Ref{Addr: addr, Kind: trace.Load} }
func store(addr uint64) trace.Ref { return trace.Ref{Addr: addr, Kind: trace.Store} }

func TestHitLatency(t *testing.T) {
	h := New(DefaultConfig())
	h.Access(load(0x100), 10) // cold miss
	done := h.Access(load(0x104), 200)
	if done != 200+h.Config().L1HitLat {
		t.Fatalf("hit done = %d, want %d", done, 200+h.Config().L1HitLat)
	}
}

func TestMissLatencyL2Hit(t *testing.T) {
	h := New(DefaultConfig())
	// Prime L2 (and L1) then conflict the block out of L1 only.
	h.Access(load(0x0), 0)
	h.Access(load(32*1024), 1000) // same L1 set, evicts block 0; fills L2
	done := h.Access(load(0x0), 2000)
	// Expected: hitLat(2) + bus(1) + L2Lat(12) = ~15.
	lat := done - 2000
	if lat < 13 || lat > 20 {
		t.Fatalf("L2-hit miss latency = %d, want ~15", lat)
	}
}

func TestMissLatencyMemory(t *testing.T) {
	h := New(DefaultConfig())
	done := h.Access(load(0x0), 100)
	lat := done - 100
	// hitLat(2)+bus(1)+L2(12)+membus(5)+70 = 90.
	if lat < 85 || lat > 100 {
		t.Fatalf("memory miss latency = %d, want ~90", lat)
	}
}

func TestMissClassificationCounts(t *testing.T) {
	h := New(tinyConfig()) // L1: 4 blocks
	// Cold misses.
	for i := uint64(0); i < 4; i++ {
		h.Access(load(i*32), i*10)
	}
	s := h.Stats()
	if s.ColdMisses != 4 || s.Misses != 4 {
		t.Fatalf("cold=%d misses=%d", s.ColdMisses, s.Misses)
	}
	// Conflict: two blocks in the same set ping-pong in a fresh
	// hierarchy whose FA shadow (4 blocks) can hold both.
	h2 := New(tinyConfig())
	h2.Access(load(0), 0)    // cold
	h2.Access(load(128), 10) // cold; evicts block 0 from L1 set 0
	h2.Access(load(0), 20)   // conflict: the 4-block FA shadow kept it
	h2.Access(load(128), 30) // conflict
	s = h2.Stats()
	if s.ConflMiss != 2 || s.ColdMisses != 2 {
		t.Fatalf("conflict=%d cold=%d, want 2/2", s.ConflMiss, s.ColdMisses)
	}
}

func TestCapacityClassification(t *testing.T) {
	h := New(tinyConfig()) // 4-block L1 and 4-block FA shadow
	// Stream over 8 blocks twice: second lap misses even fully
	// associatively -> capacity.
	for lap := 0; lap < 2; lap++ {
		for i := uint64(0); i < 8; i++ {
			h.Access(load(i*32), uint64(lap)*1000+i*10)
		}
	}
	s := h.Stats()
	if s.CapMiss != 8 {
		t.Fatalf("capacity misses = %d, want 8 (second lap)", s.CapMiss)
	}
}

func TestPerfectL1(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PerfectL1 = true
	h := New(cfg)
	h.Access(load(0), 0)
	h.Access(load(32*1024), 1000) // evicts block 0
	done := h.Access(load(0), 2000)
	if done != 2000+cfg.L1HitLat {
		t.Fatalf("perfect-L1 conflict miss took %d cycles", done-2000)
	}
	// Cold misses still pay.
	done = h.Access(load(1<<30), 3000)
	if done-3000 < 50 {
		t.Fatalf("cold miss was free under PerfectL1: %d", done-3000)
	}
}

// recordObserver captures events.
type recordObserver struct{ evs []AccessEvent }

func (r *recordObserver) OnAccess(ev *AccessEvent) { r.evs = append(r.evs, *ev) }

func TestObserverSeesEvents(t *testing.T) {
	h := New(DefaultConfig())
	obs := &recordObserver{}
	h.AddObserver(obs)
	h.Access(load(0x40), 5)
	h.Access(load(0x44), 10)
	if len(obs.evs) != 2 {
		t.Fatalf("observer saw %d events", len(obs.evs))
	}
	if obs.evs[0].Hit || obs.evs[0].MissKind != classify.Cold {
		t.Fatalf("first event = %+v", obs.evs[0])
	}
	if !obs.evs[1].Hit {
		t.Fatalf("second event should hit: %+v", obs.evs[1])
	}
	if obs.evs[0].Block != 0x40 || obs.evs[0].Frame != obs.evs[1].Frame {
		t.Fatal("block/frame bookkeeping wrong")
	}
}

func TestEvictionEventCarriesVictim(t *testing.T) {
	h := New(DefaultConfig())
	obs := &recordObserver{}
	h.AddObserver(obs)
	h.Access(load(0), 0)
	h.Access(load(32*1024), 500)
	last := obs.evs[len(obs.evs)-1]
	if !last.Victim.Valid || last.Victim.Addr != 0 {
		t.Fatalf("victim = %+v", last.Victim)
	}
}

// fakeVictim holds everything offered and reports hits for held blocks.
type fakeVictim struct {
	held   map[uint64]bool
	offers []Eviction
}

func (f *fakeVictim) Offer(ev Eviction) {
	if f.held == nil {
		f.held = map[uint64]bool{}
	}
	f.held[ev.Victim.Addr] = true
	f.offers = append(f.offers, ev)
}

func (f *fakeVictim) Lookup(block uint64, now uint64) bool {
	if f.held[block] {
		delete(f.held, block)
		return true
	}
	return false
}

func TestVictimBufferInterposes(t *testing.T) {
	h := New(DefaultConfig())
	v := &fakeVictim{}
	h.AttachVictim(v)
	h.Access(load(0), 0)
	h.Access(load(32*1024), 1000) // evicts block 0 into victim buffer
	if len(v.offers) != 1 || v.offers[0].Victim.Addr != 0 {
		t.Fatalf("offers = %+v", v.offers)
	}
	done := h.Access(load(0), 2000) // victim hit: fast
	if done-2000 != h.Config().L1HitLat+1 {
		t.Fatalf("victim hit latency = %d", done-2000)
	}
	if h.Stats().VictimHits != 1 {
		t.Fatalf("victim hits = %d", h.Stats().VictimHits)
	}
}

func TestEvictionDeadTimeAndZeroLive(t *testing.T) {
	h := New(DefaultConfig())
	v := &fakeVictim{}
	h.AttachVictim(v)
	h.Access(load(0), 0)         // load A
	h.Access(load(4), 100)       // hit A at t=100
	h.Access(load(32*1024), 600) // evict A
	if len(v.offers) != 1 {
		t.Fatalf("offers = %d", len(v.offers))
	}
	ev := v.offers[0]
	if ev.DeadTime != 500 {
		t.Fatalf("dead time = %d, want 500", ev.DeadTime)
	}
	if ev.ZeroLive {
		t.Fatal("A was hit; not zero-live")
	}
	// Now a zero-live generation: load B into same set, evict immediately.
	h.Access(load(0), 1000)       // B evicted (32K) -> offer; loads A again
	h.Access(load(32*1024), 1001) // A evicted with zero live time
	last := v.offers[len(v.offers)-1]
	if !last.ZeroLive {
		t.Fatalf("expected zero-live eviction: %+v", last)
	}
}

// scriptedPrefetcher issues a fixed list of requests the first time Due is
// polled, then records fills.
type scriptedPrefetcher struct {
	reqs   []PrefetchRequest
	fills  []uint64          // arrival times
	filled []PrefetchRequest // the requests handed back to Filled
	events int
}

func (p *scriptedPrefetcher) OnAccess(ev *AccessEvent) { p.events++ }
func (p *scriptedPrefetcher) Due(now uint64, max int) []PrefetchRequest {
	if len(p.reqs) == 0 {
		return nil
	}
	n := len(p.reqs)
	if n > max {
		n = max
	}
	out := p.reqs[:n]
	p.reqs = p.reqs[n:]
	return out
}
func (p *scriptedPrefetcher) Filled(req PrefetchRequest, at uint64, frame int, victim cache.Victim) {
	p.fills = append(p.fills, at)
	p.filled = append(p.filled, req)
}

func TestPrefetchFillArrivesLater(t *testing.T) {
	h := New(DefaultConfig())
	req := PrefetchRequest{ID: 1, Block: 0x2000, Slot: 7}
	pf := &scriptedPrefetcher{reqs: []PrefetchRequest{req}}
	h.AttachPrefetcher(pf)
	h.Access(load(0x0), 0) // triggers Due poll; prefetch 0x2000 issues
	if h.Stats().Prefetches != 1 {
		t.Fatalf("prefetches = %d", h.Stats().Prefetches)
	}
	// Access the prefetched block long after arrival: it must hit.
	done := h.Access(load(0x2000), 10000)
	if done != 10000+h.Config().L1HitLat {
		t.Fatalf("post-arrival access latency = %d", done-10000)
	}
	if len(pf.fills) != 1 {
		t.Fatalf("fills = %d", len(pf.fills))
	}
	// The fill hands the request back as issued, opaque slot included.
	if pf.filled[0] != req {
		t.Fatalf("Filled got %+v, want %+v", pf.filled[0], req)
	}
}

func TestDemandMergesWithInflightPrefetch(t *testing.T) {
	h := New(DefaultConfig())
	pf := &scriptedPrefetcher{reqs: []PrefetchRequest{{ID: 1, Block: 0x2000}}}
	h.AttachPrefetcher(pf)
	h.Access(load(0x0), 0) // prefetch 0x2000 issues around t=0, arrives ~t=90
	done := h.Access(load(0x2000), 10)
	if done < 50 || done > 120 {
		t.Fatalf("merged demand done = %d, want prefetch arrival (~90)", done)
	}
	if len(pf.fills) != 1 {
		t.Fatal("prefetcher not notified of promoted fill")
	}
}

func TestPrefetchOfResidentBlockIsNoop(t *testing.T) {
	h := New(DefaultConfig())
	pf := &scriptedPrefetcher{}
	h.AttachPrefetcher(pf)
	h.Access(load(0x0), 0)
	pf.reqs = []PrefetchRequest{{ID: 2, Block: 0x0}}
	h.Access(load(0x4), 10)
	if h.Stats().Prefetches != 0 {
		t.Fatalf("resident-block prefetch issued: %d", h.Stats().Prefetches)
	}
}

func TestPrefetchMSHRLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PrefetchMSHRs = 2
	h := New(cfg)
	pf := &scriptedPrefetcher{}
	for i := 0; i < 8; i++ {
		pf.reqs = append(pf.reqs, PrefetchRequest{ID: uint64(i), Block: 0x10000 + uint64(i)*32})
	}
	h.AttachPrefetcher(pf)
	h.Access(load(0x0), 0)
	if got := h.Stats().Prefetches; got > 2 {
		t.Fatalf("issued %d prefetches with 2 MSHRs", got)
	}
	if len(pf.reqs) != 6 {
		t.Fatalf("remaining queue = %d, want 6", len(pf.reqs))
	}
}

func TestStatsResetPreservesContents(t *testing.T) {
	h := New(DefaultConfig())
	h.Access(load(0x0), 0)
	h.ResetStats()
	if h.Stats().Accesses != 0 {
		t.Fatal("stats not cleared")
	}
	h.Access(load(0x0), 1000)
	s := h.Stats()
	if s.Accesses != 1 || s.Hits != 1 {
		t.Fatalf("contents lost across reset: %+v", s)
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Fatal("empty miss rate")
	}
	s.Accesses, s.Misses = 10, 3
	if s.MissRate() != 0.3 {
		t.Fatalf("miss rate = %v", s.MissRate())
	}
}

func TestWritebackOccupiesBus(t *testing.T) {
	h := New(DefaultConfig())
	h.Access(store(0x0), 0)       // dirty block 0
	h.Access(load(32*1024), 1000) // evicts dirty block -> writeback
	// Immediately following miss should see bus queueing (writeback + fetch).
	done := h.Access(load(64*1024), 1001)
	if done <= 1001+90 {
		t.Fatalf("no bus contention visible: done=%d", done)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.L1HitLat = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero hit latency validated")
	}
	bad = DefaultConfig()
	bad.L1.BlockBytes = 128
	if err := bad.Validate(); err == nil {
		t.Fatal("L1 block > L2 block validated")
	}
	bad = DefaultConfig()
	bad.DemandMSHRs = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero MSHRs validated")
	}
}
