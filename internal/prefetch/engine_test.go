package prefetch

import (
	"testing"

	"timekeeping/internal/hier"
)

func TestTimelinessClassNames(t *testing.T) {
	want := map[TimelinessClass]string{
		Early: "early", Discarded: "discarded", Timely: "timely",
		Late: "start_not_timely", NotStarted: "not_started",
		TimelinessClass(99): "invalid",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q", c, c.String())
		}
	}
}

func TestEngineScheduleAndDue(t *testing.T) {
	e := newEngine(8, 4)
	e.schedule(0, 0x1000, 0x2000, 100)
	if got := e.due(50, 10); len(got) != 0 {
		t.Fatalf("request fired early: %v", got)
	}
	got := e.due(100, 10)
	if len(got) != 1 || got[0] != (hier.PrefetchRequest{ID: 1, Block: 0x1000, Slot: 0}) {
		t.Fatalf("due = %+v", got)
	}
	// Issued requests do not reappear.
	if got := e.due(200, 10); len(got) != 0 {
		t.Fatalf("request re-issued: %v", got)
	}
}

func TestEngineSupersede(t *testing.T) {
	e := newEngine(8, 4)
	e.schedule(0, 0x1000, 0x2000, 100)
	e.schedule(0, 0x3000, 0x2000, 150) // re-arms the frame's counter
	got := e.due(1000, 10)
	if len(got) != 1 || got[0].Block != 0x3000 {
		t.Fatalf("due after supersede = %+v", got)
	}
}

func TestEngineQueueOverflowDiscards(t *testing.T) {
	e := newEngine(16, 2)
	for f := 0; f < 5; f++ {
		e.schedule(f, uint64(0x1000+f*64), 0x9000, 10)
	}
	got := e.due(10, 0) // drain timers into the queue without issuing
	if len(got) != 0 {
		t.Fatal("issued with max=0")
	}
	// Queue cap 2: three oldest were discarded.
	discarded := 0
	for f := 0; f < 5; f++ {
		if r := e.byFrame[f]; r.state == stDiscarded {
			discarded++
		}
	}
	if discarded != 3 {
		t.Fatalf("discarded = %d, want 3", discarded)
	}
}

func TestEngineMaxLimitsIssue(t *testing.T) {
	e := newEngine(16, 8)
	for f := 0; f < 5; f++ {
		e.schedule(f, uint64(0x1000+f*64), 0x9000, 0)
	}
	if got := e.due(10, 2); len(got) != 2 {
		t.Fatalf("issued %d, want 2", len(got))
	}
	if got := e.due(10, 10); len(got) != 3 {
		t.Fatalf("second drain issued %d, want 3", len(got))
	}
}

func TestClassifyTimelyCorrect(t *testing.T) {
	e := newEngine(8, 4)
	e.schedule(0, 0x1000, 0x2000, 10)
	if !e.filled(e.due(10, 10)[0]) {
		t.Fatal("fill of the live record reported stale")
	}
	// Hit on the prefetched block: timely + correct.
	e.onFrameHit(0, 0x1000)
	if e.timeliness.Correct[Timely] != 1 {
		t.Fatalf("timeliness = %+v", e.timeliness)
	}
	if e.addr.Accuracy() != 1 {
		t.Fatalf("accuracy = %v", e.addr.Accuracy())
	}
}

func TestClassifyNotStarted(t *testing.T) {
	e := newEngine(8, 4)
	e.schedule(0, 0x1000, 0x2000, 1000)
	// Next miss arrives before the timer fires: not started. The miss is
	// to the predicted block, so the address was right.
	e.onFrameMiss(0, 0x1000)
	if e.timeliness.Correct[NotStarted] != 1 {
		t.Fatalf("timeliness = %+v", e.timeliness)
	}
}

func TestClassifyLate(t *testing.T) {
	e := newEngine(8, 4)
	e.schedule(0, 0x1000, 0x2000, 10)
	e.due(10, 10) // issued
	// Miss before arrival: started but not timely; wrong address.
	e.onFrameMiss(0, 0x5000)
	if e.timeliness.Wrong[Late] != 1 {
		t.Fatalf("timeliness = %+v", e.timeliness)
	}
}

func TestClassifyDiscarded(t *testing.T) {
	e := newEngine(8, 1)
	e.schedule(0, 0x1000, 0x9000, 10)
	e.schedule(1, 0x2000, 0x9000, 10)
	e.due(10, 0) // both queued; queue cap 1 discards the first
	e.onFrameMiss(0, 0x1000)
	if e.timeliness.Correct[Discarded] != 1 {
		t.Fatalf("timeliness = %+v", e.timeliness)
	}
}

func TestClassifyEarlyWithDeferredCorrectness(t *testing.T) {
	e := newEngine(8, 4)
	e.schedule(0, 0x1000, 0x2000, 10) // predict 0x1000 after 0x2000 dies
	e.filled(e.due(10, 10)[0])
	// The displaced block 0x2000 is re-referenced: the prefetch was early.
	e.onFrameMiss(0, 0x2000)
	if e.timeliness.CorrectTotal()+e.timeliness.WrongTotal() != 0 {
		t.Fatal("early classification should defer correctness")
	}
	// The following miss is to the predicted block: early but correct.
	e.onFrameMiss(0, 0x1000)
	if e.timeliness.Correct[Early] != 1 {
		t.Fatalf("timeliness = %+v", e.timeliness)
	}
}

func TestClassifyEarlyWrong(t *testing.T) {
	e := newEngine(8, 4)
	e.schedule(0, 0x1000, 0x2000, 10)
	e.filled(e.due(10, 10)[0])
	e.onFrameMiss(0, 0x2000) // early (displaced reload)
	e.onFrameMiss(0, 0x7000) // true next generation: wrong address
	if e.timeliness.Wrong[Early] != 1 {
		t.Fatalf("timeliness = %+v", e.timeliness)
	}
}

func TestTimelinessFrac(t *testing.T) {
	var tl Timeliness
	tl.Correct[Timely] = 3
	tl.Correct[Early] = 1
	if got := tl.Frac(true, Timely); got != 0.75 {
		t.Fatalf("frac = %v", got)
	}
	if got := tl.Frac(false, Timely); got != 0 {
		t.Fatalf("empty-side frac = %v", got)
	}
	if tl.CorrectTotal() != 4 || tl.WrongTotal() != 0 {
		t.Fatal("totals wrong")
	}
}

func TestEngineResetStats(t *testing.T) {
	e := newEngine(8, 4)
	e.schedule(0, 0x1000, 0x2000, 10)
	e.due(10, 10)
	e.onFrameMiss(0, 0x1000)
	e.resetStats()
	if e.timeliness.CorrectTotal() != 0 || e.issued != 0 || e.scheduled != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestTimerHeapOrder(t *testing.T) {
	var h timerHeap
	for _, at := range []uint64{50, 10, 90, 30, 70} {
		h.push(timer{fireAt: at})
	}
	prev := uint64(0)
	for len(h) > 0 {
		r := h.pop()
		if r.fireAt < prev {
			t.Fatalf("heap order violated: %d after %d", r.fireAt, prev)
		}
		prev = r.fireAt
	}
}

// Interleaved pushes and pops must preserve heap order (regression test
// for a sift-down that failed to descend).
func TestTimerHeapInterleaved(t *testing.T) {
	var h timerHeap
	seed := uint64(0x12345)
	next := func() uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed % 100000
	}
	var popped []uint64
	live := 0
	for round := 0; round < 2000; round++ {
		h.push(timer{fireAt: next()})
		live++
		if round%3 == 2 {
			for i := 0; i < 2 && live > 0; i++ {
				popped = append(popped, h.pop().fireAt)
				live--
			}
		}
	}
	// Drain and verify global order property: each pop must return the
	// minimum of the heap at that time; checking sortedness of a full
	// drain suffices for the final state.
	prev := uint64(0)
	first := true
	for live > 0 {
		v := h.pop().fireAt
		live--
		if !first && v < prev {
			t.Fatalf("drain out of order: %d after %d", v, prev)
		}
		prev, first = v, false
	}
	_ = popped
}
