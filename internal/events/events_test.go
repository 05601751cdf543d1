package events

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestNilSinkNoOp: every method must be safe (and do nothing) on a nil
// receiver — the emit sites pay one branch, never a crash.
func TestNilSinkNoOp(t *testing.T) {
	var s *Sink
	if s.Enabled() {
		t.Fatal("nil sink reports enabled")
	}
	s.Bind(32, 4, 2)
	s.AdvanceRef(1)
	s.Emit(Event{Kind: Fill})
	sp := s.BeginSpan("x", 0)
	if sp != nil {
		t.Fatalf("nil BeginSpan = %+v, want nil", sp)
	}
	s.EndSpan(sp, 0)
	if s.Len() != 0 || s.Ref() != 0 || s.Emitted() != 0 || s.Dropped() != 0 {
		t.Fatal("nil sink holds state")
	}
	if s.Events() != nil || s.Trace() != nil || s.FrameFilter(4, 2) != nil {
		t.Fatal("nil sink returned data")
	}
	if err := s.WriteChromeTrace(nil); err == nil {
		t.Fatal("nil sink export did not error")
	}
	if err := s.WriteJSONL(nil); err == nil {
		t.Fatal("nil sink export did not error")
	}
}

// TestDisabledPathAllocs: the tracing-off path — a nil sink guard plus the
// no-op calls — must not allocate. This is the same discipline
// internal/obs holds its disabled handles to.
func TestDisabledPathAllocs(t *testing.T) {
	var s *Sink
	ev := Event{Kind: Hit, Cycle: 1, Block: 0x40, Frame: 2}
	allocs := testing.AllocsPerRun(1000, func() {
		if s != nil {
			s.AdvanceRef(1)
		}
		s.Emit(ev)
		s.AdvanceRef(1)
	})
	if allocs != 0 {
		t.Fatalf("disabled emit path allocates %v per op, want 0", allocs)
	}
}

// TestEnabledPathAllocs: the enabled path writes into the preallocated
// ring and must not allocate either.
func TestEnabledPathAllocs(t *testing.T) {
	s := NewSink(Config{Cap: 64}, nil)
	ev := Event{Kind: Hit, Cycle: 1, Block: 0x40, Frame: 2}
	allocs := testing.AllocsPerRun(1000, func() {
		s.AdvanceRef(1)
		s.Emit(ev)
	})
	if allocs != 0 {
		t.Fatalf("enabled emit path allocates %v per op, want 0", allocs)
	}
}

func TestRingOverflow(t *testing.T) {
	s := NewSink(Config{Cap: 4}, nil)
	for i := uint64(0); i < 10; i++ {
		s.Emit(Event{Kind: Fill, Cycle: i, Frame: -1})
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if s.Emitted() != 10 || s.Dropped() != 6 {
		t.Fatalf("emitted/dropped = %d/%d, want 10/6", s.Emitted(), s.Dropped())
	}
	evs := s.Events()
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Cycle != want {
			t.Fatalf("event %d cycle = %d, want %d (oldest-first, oldest overwritten)", i, ev.Cycle, want)
		}
	}
}

func TestKindFilter(t *testing.T) {
	s := NewSink(Config{Cap: 16, Kinds: MaskOf(Fill, Evict)}, nil)
	s.Emit(Event{Kind: Fill, Frame: -1})
	s.Emit(Event{Kind: Hit, Frame: -1})
	s.Emit(Event{Kind: Evict, Frame: -1})
	s.Emit(Event{Kind: Decay, Frame: -1})
	evs := s.Events()
	if len(evs) != 2 || evs[0].Kind != Fill || evs[1].Kind != Evict {
		t.Fatalf("kind-filtered capture = %+v", evs)
	}
}

// TestSetFilter: after Bind, events are stamped with the set of their
// frame (or block) and the set filter keeps only its sets; events with no
// set information (the MSHR occupancy marks) are dropped.
func TestSetFilter(t *testing.T) {
	s := NewSink(Config{Cap: 16, Sets: []int{1}}, nil)
	s.Bind(32, 4, 2) // 4 sets, 2 ways: frames 2,3 are set 1
	if got, want := s.FrameFilter(4, 2), []bool{false, false, true, true, false, false, false, false}; !reflect.DeepEqual(got, want) {
		t.Fatalf("frame filter = %v, want %v", got, want)
	}
	if f := NewSink(Config{Cap: 16}, nil).FrameFilter(4, 2); f != nil {
		t.Fatalf("a sink without a set filter keeps every frame, got %v", f)
	}

	s.Emit(Event{Kind: Fill, Frame: 0})                  // set 0: filtered
	s.Emit(Event{Kind: Fill, Frame: 2})                  // set 1: kept
	s.Emit(Event{Kind: Fill, Frame: 3})                  // set 1: kept
	s.Emit(Event{Kind: Evict, Frame: -1, Block: 1 * 32}) // block in set 1: kept
	s.Emit(Event{Kind: Evict, Frame: -1, Block: 2 * 32}) // block in set 2: filtered
	s.Emit(Event{Kind: MSHR, Frame: -1})                 // no set info: filtered

	evs := s.Events()
	if len(evs) != 3 {
		t.Fatalf("set-filtered capture has %d events, want 3: %+v", len(evs), evs)
	}
	for _, ev := range evs {
		if ev.Set != 1 {
			t.Fatalf("kept event has set %d, want 1: %+v", ev.Set, ev)
		}
	}
}

func TestBlockRangeFilter(t *testing.T) {
	s := NewSink(Config{Cap: 16, BlockMin: 0x100, BlockMax: 0x1ff}, nil)
	s.Emit(Event{Kind: Fill, Frame: -1, Block: 0x80})  // below: filtered
	s.Emit(Event{Kind: Fill, Frame: -1, Block: 0x100}) // kept
	s.Emit(Event{Kind: Fill, Frame: -1, Block: 0x1ff}) // kept
	s.Emit(Event{Kind: Fill, Frame: -1, Block: 0x200}) // above: filtered
	s.Emit(Event{Kind: MSHR, Frame: -1})               // no block: kept
	if n := s.Len(); n != 3 {
		t.Fatalf("block-filtered capture has %d events, want 3", n)
	}
}

func TestRefClock(t *testing.T) {
	s := NewSink(Config{Cap: 16}, nil)
	s.Emit(Event{Kind: Fill, Frame: -1})
	s.AdvanceRef(1)
	s.AdvanceRef(1)
	s.Emit(Event{Kind: Hit, Frame: -1})
	evs := s.Events()
	if evs[0].Ref != 0 || evs[1].Ref != 2 {
		t.Fatalf("ref stamps = %d, %d, want 0, 2", evs[0].Ref, evs[1].Ref)
	}
}

func TestParseKinds(t *testing.T) {
	m, err := ParseKinds("fill, evict")
	if err != nil {
		t.Fatal(err)
	}
	if !m.Has(Fill) || !m.Has(Evict) || m.Has(Hit) {
		t.Fatalf("mask = %b", m)
	}
	if m, err := ParseKinds(""); err != nil || m != 0 {
		t.Fatalf("empty parse = %v, %v (zero mask selects all)", m, err)
	}
	if _, err := ParseKinds("bogus"); err == nil || !strings.Contains(err.Error(), "fill") {
		t.Fatalf("unknown kind error %q must name accepted values", err)
	}
	// Every wire name round-trips.
	for k := Kind(0); k < numKinds; k++ {
		m, err := ParseKinds(k.String())
		if err != nil || !m.Has(k) {
			t.Fatalf("kind %v does not round-trip: %v", k, err)
		}
	}
}

func TestParseSets(t *testing.T) {
	got, err := ParseSets("5, 0:3, 9", 1024)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{5, 0, 1, 2, 3, 9}
	if len(got) != len(want) {
		t.Fatalf("ParseSets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ParseSets = %v, want %v", got, want)
		}
	}
	if got, err := ParseSets("", 1024); err != nil || got != nil {
		t.Fatalf("empty parse = %v, %v", got, err)
	}
	for _, bad := range []string{"x", "-1", "3:1", "1:x"} {
		if _, err := ParseSets(bad, 1024); err == nil {
			t.Fatalf("ParseSets(%q) did not error", bad)
		}
	}
	// An index past the L1 is rejected before any range is expanded, so a
	// filter matching nothing never runs and a huge range never allocates.
	if got, err := ParseSets("1023, 0:1023", 1024); err != nil || len(got) != 1025 {
		t.Fatalf("ParseSets up to the last set = %d sets, %v", len(got), err)
	}
	for _, bad := range []string{"5000", "1024", "0:4000000000"} {
		_, err := ParseSets(bad, 1024)
		if err == nil || !strings.Contains(err.Error(), "0..1023") {
			t.Fatalf("ParseSets(%q) = %v, want an error naming 0..1023", bad, err)
		}
	}
}

func TestSpans(t *testing.T) {
	s := NewSink(Config{Cap: 16}, nil)
	outer := s.BeginSpan("run", 100)
	s.AdvanceRef(1)
	inner := s.BeginSpan("warmup", 100)
	s.EndSpan(inner, 500)
	s.EndSpan(outer, 900)
	s.EndSpan(outer, 1200) // double-end: no-op

	// Spans land on the trace as they end: the inner one first.
	spans := s.Trace().Spans()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	if spans[1].Name != "run" || spans[1].SimStart != 100 || spans[1].SimEnd != 900 {
		t.Fatalf("outer span = %+v", spans[1])
	}
	if spans[0].Name != "warmup" || spans[0].SimEnd != 500 || spans[0].RefStart != 1 {
		t.Fatalf("inner span = %+v", spans[0])
	}
	if spans[1].End.Before(spans[1].Start) {
		t.Fatal("span wall clock runs backwards")
	}
}

// TestConcurrentEmit: concurrent emitters, span writers and readers must
// be safe (run under -race) and lose nothing.
func TestConcurrentEmit(t *testing.T) {
	const (
		goroutines = 8
		perG       = 1000
	)
	s := NewSink(Config{Cap: goroutines * perG}, nil)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s.AdvanceRef(1)
				s.Emit(Event{Kind: Hit, Cycle: uint64(i), Frame: int32(g)})
				if i%100 == 0 {
					id := s.BeginSpan("w", uint64(i))
					s.EndSpan(id, uint64(i))
					_ = s.Len()
					_ = s.Events()
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != goroutines*perG || s.Dropped() != 0 {
		t.Fatalf("captured %d (dropped %d), want %d/0", s.Len(), s.Dropped(), goroutines*perG)
	}
	if s.Ref() != goroutines*perG {
		t.Fatalf("ref clock = %d, want %d", s.Ref(), goroutines*perG)
	}
	if n := len(s.Trace().Spans()); n != goroutines*(perG/100) {
		t.Fatalf("%d spans", n)
	}
}
