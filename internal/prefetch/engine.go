// Package prefetch implements the paper's two hardware prefetchers: the
// timekeeping prefetcher of Section 5.2 (8 KB unified address + live-time
// correlation table, prefetch scheduled at 2x the predicted live time) and
// the DBCP baseline of Lai, Fide and Falsafi (a 2 MB dead-block
// correlating predictor driven by per-frame reference-trace signatures).
//
// Both share the engine in this file: a per-frame countdown timer (the
// paper's prefetch_counter), the 128-entry prefetch request queue that
// drops its oldest entry when full, and the timeliness bookkeeping that
// reproduces Figure 21's classification — early / discarded / timely /
// started-but-not-timely / not-started, split by address-prediction
// correctness. All of its state is sized at construction or during
// warm-up, so steady-state simulation allocates nothing.
package prefetch

import (
	"timekeeping/internal/hier"
	"timekeeping/internal/stats"
)

// TimelinessClass labels a finished prefetch the way Figure 21 does.
type TimelinessClass uint8

// Timeliness classes (Figure 21).
const (
	// Early prefetches arrived before the resident block was dead and
	// displaced it, causing an extra miss.
	Early TimelinessClass = iota
	// Discarded prefetches were dropped from the request queue before
	// issue to make room for newer requests.
	Discarded
	// Timely prefetches arrived within the dead time, before the next
	// miss.
	Timely
	// Late prefetches issued but arrived after the next miss
	// ("started_but_not_timely").
	Late
	// NotStarted prefetches never issued before the next miss.
	NotStarted
	numClasses
)

// String returns the class name as used in Figure 21.
func (c TimelinessClass) String() string {
	switch c {
	case Early:
		return "early"
	case Discarded:
		return "discarded"
	case Timely:
		return "timely"
	case Late:
		return "start_not_timely"
	case NotStarted:
		return "not_started"
	default:
		return "invalid"
	}
}

// Timeliness tallies finished prefetches by class, split by whether the
// address prediction was correct.
type Timeliness struct {
	Correct [numClasses]uint64
	Wrong   [numClasses]uint64
}

// Total returns the number of classified prefetches on one side.
func sum(a [numClasses]uint64) uint64 {
	var t uint64
	for _, v := range a {
		t += v
	}
	return t
}

// CorrectTotal returns the number of correct-address prefetches classified.
func (t *Timeliness) CorrectTotal() uint64 { return sum(t.Correct) }

// WrongTotal returns the number of wrong-address prefetches classified.
func (t *Timeliness) WrongTotal() uint64 { return sum(t.Wrong) }

// Merge adds another tally's counts into t (pooling across disjoint runs).
func (t *Timeliness) Merge(o Timeliness) {
	for c := range t.Correct {
		t.Correct[c] += o.Correct[c]
		t.Wrong[c] += o.Wrong[c]
	}
}

// Frac returns class c's share within the correct or wrong population.
func (t *Timeliness) Frac(correct bool, c TimelinessClass) float64 {
	var arr [numClasses]uint64
	if correct {
		arr = t.Correct
	} else {
		arr = t.Wrong
	}
	total := sum(arr)
	if total == 0 {
		return 0
	}
	return float64(arr[c]) / float64(total)
}

// recState is a prefetch record's lifecycle position.
type recState uint8

const (
	stDone      recState = iota // classified, superseded, or never armed
	stScheduled                 // countdown running
	stQueued                    // in the request queue
	stIssued                    // sent to L2/memory
	stArrived                   // data installed in L1
	stDiscarded                 // dropped from the queue
)

// record tracks one prediction from schedule to classification. A frame
// has one prefetch_counter, so it holds at most one live record: records
// live by value, one slot per frame, and seq tells the slot's current
// record from the one it replaced.
type record struct {
	seq       uint64
	block     uint64 // predicted prefetch target (block address)
	displaced uint64 // block resident when the prediction was made
	state     recState
}

// ref names one record by its frame slot and sequence number. Timers,
// queue entries and issued requests hold refs; a ref whose slot now holds
// a different seq is stale — its record was superseded.
type ref struct {
	seq   uint64
	frame int
}

// timer is an armed countdown: the record it fires and when.
type timer struct {
	fireAt uint64
	ref
}

// engine owns records, the countdown timers and the request queue.
type engine struct {
	timers  timerHeap
	queue   []ref // request-queue ring, oldest entry at qHead
	qHead   int
	qLen    int
	byFrame []record // the record per frame (one prefetch_counter each)
	nextSeq uint64
	out     []hier.PrefetchRequest // due's result, reused across calls

	// earlyCheck defers address-correctness for early prefetches to the
	// following miss in the frame (the displaced block's reload is not
	// the next-generation address).
	earlyCheck []earlyPending

	timeliness Timeliness
	addr       stats.BinaryPredictionTally // address accuracy per finished prediction

	scheduled uint64
	issued    uint64
}

type earlyPending struct {
	valid    bool
	predTag  uint64 // predicted block
	displace uint64 // the block whose reload triggered "early"
}

// timerHeap is a binary min-heap of timers ordered by fireAt.
type timerHeap []timer

func (h *timerHeap) push(t timer) {
	*h = append(*h, t)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p].fireAt <= (*h)[i].fireAt {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *timerHeap) pop() timer {
	old := *h
	t := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		small := i
		if l < n && (*h)[l].fireAt < (*h)[small].fireAt {
			small = l
		}
		if rr < n && (*h)[rr].fireAt < (*h)[small].fireAt {
			small = rr
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return t
}

func newEngine(frames, queueCap int) *engine {
	return &engine{
		queue:      make([]ref, queueCap),
		byFrame:    make([]record, frames),
		earlyCheck: make([]earlyPending, frames),
	}
}

// state returns r's record state; a stale ref reads as done.
func (e *engine) state(r ref) recState {
	if rec := &e.byFrame[r.frame]; rec.seq == r.seq {
		return rec.state
	}
	return stDone
}

// schedule arms frame's prefetch counter: fetch `block` at fireAt. A new
// miss re-arms the frame's single counter, so any previous prediction for
// the frame is abandoned without classification (it no longer
// corresponds to a generation boundary we can check): overwriting the
// slot leaves its timer and queue entries stale.
func (e *engine) schedule(frame int, block, displaced, fireAt uint64) {
	e.nextSeq++
	e.byFrame[frame] = record{seq: e.nextSeq, block: block, displaced: displaced, state: stScheduled}
	e.timers.push(timer{fireAt: fireAt, ref: ref{seq: e.nextSeq, frame: frame}})
	e.scheduled++
}

// due moves expired timers into the queue (dropping the oldest entry when
// it is full) and pops up to max ready requests. The result is e.out,
// valid until the next call.
func (e *engine) due(now uint64, max int) []hier.PrefetchRequest {
	for len(e.timers) > 0 && e.timers[0].fireAt <= now {
		t := e.timers.pop()
		if e.state(t.ref) != stScheduled { // superseded or already finished
			continue
		}
		e.byFrame[t.frame].state = stQueued
		if e.qLen == len(e.queue) {
			if old := e.queue[e.qHead]; e.state(old) == stQueued {
				e.byFrame[old.frame].state = stDiscarded
			}
			e.qHead = (e.qHead + 1) % len(e.queue)
			e.qLen--
		}
		e.queue[(e.qHead+e.qLen)%len(e.queue)] = t.ref
		e.qLen++
	}
	e.out = e.out[:0]
	for e.qLen > 0 && len(e.out) < max {
		r := e.queue[e.qHead]
		e.qHead = (e.qHead + 1) % len(e.queue)
		e.qLen--
		if e.state(r) != stQueued {
			continue
		}
		rec := &e.byFrame[r.frame]
		rec.state = stIssued
		e.issued++
		e.out = append(e.out, hier.PrefetchRequest{ID: r.seq, Block: rec.block, Slot: r.frame})
	}
	return e.out
}

// filled records the arrival of req, a request due issued. It reports
// whether req's record is still live — neither classified nor superseded
// — in which case the fill is the prediction's own.
func (e *engine) filled(req hier.PrefetchRequest) bool {
	switch e.state(ref{seq: req.ID, frame: req.Slot}) {
	case stDone:
		return false
	case stIssued:
		e.byFrame[req.Slot].state = stArrived
	}
	return true
}

// classify finishes frame's live record given the address of the frame's
// next demand miss (or hit on the prefetched block, hitOnTarget).
func (e *engine) classify(frame int, missBlock uint64, hitOnTarget bool) {
	r := &e.byFrame[frame]
	correct := missBlock == r.block
	var class TimelinessClass
	switch {
	case hitOnTarget:
		class, correct = Timely, true
	case r.state == stArrived && missBlock == r.displaced:
		// The prefetch displaced a block that was still live; defer the
		// correctness call to the next miss (the displaced block's
		// reload address says nothing about the prediction).
		e.earlyCheck[frame] = earlyPending{valid: true, predTag: r.block, displace: r.displaced}
		r.state = stDone
		return
	case r.state == stArrived:
		class = Timely
	case r.state == stIssued:
		class = Late
	case r.state == stDiscarded:
		class = Discarded
	default: // scheduled or queued
		class = NotStarted
	}
	e.record(class, correct)
	r.state = stDone
}

// record tallies one classified prefetch.
func (e *engine) record(class TimelinessClass, correct bool) {
	if correct {
		e.timeliness.Correct[class]++
	} else {
		e.timeliness.Wrong[class]++
	}
	e.addr.Record(true, correct)
}

// onFrameMiss must be called for every demand miss on a frame: it
// finalises the active record and any deferred early check. The caller
// then schedules the next prediction.
func (e *engine) onFrameMiss(frame int, missBlock uint64) {
	if ec := &e.earlyCheck[frame]; ec.valid {
		if missBlock != ec.displace {
			e.record(Early, missBlock == ec.predTag)
			ec.valid = false
		}
		// A reload of the displaced block keeps the check pending.
	}
	if e.byFrame[frame].state != stDone {
		e.classify(frame, missBlock, false)
	}
}

// onFrameHit must be called for demand hits on a frame whose resident was
// prefetched and untouched: it finalises the record as timely-correct.
func (e *engine) onFrameHit(frame int, block uint64) {
	if r := &e.byFrame[frame]; r.state != stDone && block == r.block {
		e.classify(frame, block, true)
	}
}

// resetStats clears tallies but keeps live records.
func (e *engine) resetStats() {
	e.timeliness = Timeliness{}
	e.addr = stats.BinaryPredictionTally{}
	e.scheduled, e.issued = 0, 0
}

// mergeStats folds another engine's tallies into e (pooling across
// disjoint runs); live records are untouched.
func (e *engine) mergeStats(o *engine) {
	e.timeliness.Merge(o.timeliness)
	e.addr.Predictions += o.addr.Predictions
	e.addr.Correct += o.addr.Correct
	e.addr.Events += o.addr.Events
	e.scheduled += o.scheduled
	e.issued += o.issued
}
