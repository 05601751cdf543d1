// Package events is the simulator's generation-event tracing layer: a
// low-overhead sink that records cache-generation lifecycle events (fills,
// demand hits, evictions with their dead times, decay, prefetch issue and
// fill, victim-cache offer/admit/hit, MSHR occupancy marks) with both
// sim-cycle and reference-index timestamps. The sink also stamps run-level
// spans (warm-up, measurement windows, functional-warming stretches,
// per-experiment points) with their sim-cycle and reference extents and
// records them as telemetry spans, on the job's request trace or on a
// trace of the sink's own.
//
// Where internal/obs answers "how much" (counters, histograms), this
// package answers "when": it makes a single generation — live time, dead
// time, the accesses inside it — visible on a timeline, reproducing the
// paper's Figure 2/3-style per-frame views from a real run.
//
// Design constraints, in the same discipline as internal/obs:
//
//   - A nil *Sink is valid everywhere and does nothing, so instrumented
//     code pays one untaken branch when tracing is off; the disabled path
//     is zero-allocation (verified by AllocsPerRun tests and a benchmark
//     guard).
//   - The enabled path allocates nothing per event: events are fixed-size
//     values written into a preallocated bounded ring. When the ring is
//     full the oldest event is overwritten (and counted as dropped), so a
//     run can never grow memory without bound.
//   - Per-set, address-range and event-kind filters are applied at emit
//     time, so full-detail capture of a few sets stays cheap at corpus
//     scale. A set filter keeps only events on its sets: the demand-MSHR
//     occupancy marks, which belong to no set, appear only in captures
//     without one.
//
// Exporters render the captured ring and the trace's spans through
// internal/telemetry's writers: a Chrome trace-event JSON file
// (Perfetto-compatible; each traced L1 frame is a track, live/dead
// generation intervals are colored slices) or a compact JSONL stream for
// programmatic consumption. See export.go.
package events

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"timekeeping/internal/obs"
	"timekeeping/internal/telemetry"
)

// Process-cumulative tracing counters, rendered by tkserve's /metrics:
// events recorded into rings versus events overwritten before export.
var (
	ctrEmitted = obs.Default.Counter("sim_events_emitted_total")
	ctrDropped = obs.Default.Counter("sim_events_dropped_total")
)

// Kind identifies one generation-lifecycle event.
type Kind uint8

// Event kinds. Fill/Hit/Evict carry a generation through its lifecycle;
// the victim, prefetch, MSHR and decay kinds annotate the mechanisms the
// paper builds on top of generational time.
const (
	// Fill is a demand miss installing a block into an L1 frame (A is the
	// cycle the data arrives, B the classify.MissKind).
	Fill Kind = iota
	// Hit is a demand hit on a resident block (A is the data-ready cycle).
	Hit
	// Evict is a block leaving the L1 on a fill (A is the frame's dead
	// time at eviction, B is flag bits — see EvictZeroLive and friends).
	Evict
	// VictimHit is an L1 miss satisfied by the victim buffer.
	VictimHit
	// VictimOffer is an eviction presented to the victim buffer (A is the
	// dead time the admission filter saw).
	VictimOffer
	// VictimAdmit is an offer the admission filter accepted (A as Offer).
	VictimAdmit
	// PrefetchIssue is a prefetch entering the memory system (A is its
	// arrival cycle, B the request ID).
	PrefetchIssue
	// PrefetchFill is prefetched data arriving in the L1 (A is 1 when the
	// block was installed, 0 when it was already resident; B the request
	// ID).
	PrefetchFill
	// MSHR is a demand-MSHR occupancy mark taken after a miss allocation
	// (A is entries in flight, B the file's capacity).
	MSHR
	// Decay marks a frame whose idle period exceeded a decay interval
	// (A is the interval in cycles, B is 1 when the line was re-accessed
	// afterwards — an induced miss under that interval).
	Decay

	numKinds
)

// kindNames are the stable wire names (JSONL, -events-kinds).
var kindNames = [numKinds]string{
	"fill", "hit", "evict",
	"victim_hit", "victim_offer", "victim_admit",
	"prefetch_issue", "prefetch_fill",
	"mshr", "decay",
}

// String returns the kind's stable wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "invalid"
}

// Evict/VictimOffer flag bits carried in Event.B.
const (
	// EvictZeroLive marks a victim that was never hit after its fill.
	EvictZeroLive = 1 << iota
	// EvictDirty marks a victim that was written back.
	EvictDirty
	// EvictByPrefetch marks a displacement by a prefetch fill.
	EvictByPrefetch
)

// KindMask selects a subset of kinds; the zero mask selects every kind.
type KindMask uint32

// MaskOf builds a mask selecting exactly the given kinds.
func MaskOf(kinds ...Kind) KindMask {
	var m KindMask
	for _, k := range kinds {
		m |= 1 << k
	}
	return m
}

// Has reports whether the mask selects k (a zero mask selects all).
func (m KindMask) Has(k Kind) bool { return m == 0 || m&(1<<k) != 0 }

// ParseKinds parses a comma-separated kind list ("fill,evict,hit") into a
// mask; an empty string selects every kind. The error names the accepted
// values.
func ParseKinds(s string) (KindMask, error) {
	if s == "" {
		return 0, nil
	}
	var m KindMask
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		found := false
		for k := Kind(0); k < numKinds; k++ {
			if part == kindNames[k] {
				m |= 1 << k
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("events: unknown kind %q (accepted: %s)", part, strings.Join(kindNames[:], " | "))
		}
	}
	return m, nil
}

// ParseSets parses a set filter for an L1 with the given number of sets:
// a comma-separated list whose elements are single set indices ("5") or
// inclusive ranges ("0:3"). An empty string means no filter (every set).
// An index at or past the set count is an error naming the accepted range.
func ParseSets(s string, sets uint64) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		lo, hi, isRange := strings.Cut(part, ":")
		if !isRange {
			hi = lo
		}
		a, err1 := strconv.Atoi(lo)
		b, err2 := strconv.Atoi(hi)
		switch {
		case err1 != nil || err2 != nil || a < 0 || b < a:
			return nil, fmt.Errorf("events: bad set filter element %q (want N or LO:HI with 0 <= LO <= HI)", part)
		case uint64(b) >= sets:
			return nil, fmt.Errorf("events: set filter element %q out of range (accepted: 0..%d; the L1 has %d sets)", part, sets-1, sets)
		}
		for i := a; i <= b; i++ {
			out = append(out, i)
		}
	}
	return out, nil
}

// Event is one recorded occurrence. Events are fixed-size values (no
// pointers) so the ring is a flat allocation and emit copies, never
// allocates. A and B are kind-specific payloads documented on each Kind.
type Event struct {
	Kind  Kind
	Cycle uint64 // sim-cycle timestamp
	Ref   uint64 // reference-index timestamp (demand L1 accesses so far)
	Block uint64 // block-aligned address (0 when not applicable)
	Frame int32  // L1 frame index, -1 when not applicable
	Set   int32  // L1 set index (stamped by the sink), -1 when unknown
	A, B  uint64
}

// Config selects what a Sink captures.
type Config struct {
	// Cap bounds the ring in events (0 = 65536). When full, the oldest
	// event is overwritten and counted dropped.
	Cap int
	// Kinds selects event kinds (zero mask = all).
	Kinds KindMask
	// Sets, when non-empty, restricts capture to events on these L1 sets;
	// events with no set (MSHR occupancy marks) are then dropped too.
	Sets []int
	// BlockMin/BlockMax, when BlockMax > 0, restrict capture to events
	// whose block address falls in [BlockMin, BlockMax].
	BlockMin, BlockMax uint64
}

// DefaultCap is the ring capacity when Config.Cap is zero.
const DefaultCap = 1 << 16

// geometry is the L1 shape Bind publishes: how to map a frame or block
// to its set, plus the set filter precomputed as a bitmap. Published via
// an atomic pointer and immutable afterwards, so Emit can stamp and
// reject filtered events without taking the sink's mutex — the whole
// point of set-filtered capture is that off-filter sets cost (almost)
// nothing.
type geometry struct {
	setOf   []int32 // frame -> set
	shift   uint    // block shift, for set-of-block
	setMask uint64
	keep    []bool // per-set filter; nil = every set passes
}

// Sink records events for one run (or one job) and its run spans on a
// trace. Construct with NewSink; a nil *Sink is a valid no-op everywhere.
type Sink struct {
	cfg   Config
	geom  atomic.Pointer[geometry] // set by Bind, immutable afterwards
	trace *telemetry.Trace         // receives the run spans

	ref atomic.Uint64 // reference-index clock, advanced by the hierarchy

	mu      sync.Mutex
	ring    []Event
	head    int // next slot to write
	n       int // entries filled
	dropped uint64
	emitted uint64
}

// NewSink returns a sink capturing under the given configuration. Its run
// spans are recorded on tr (a job's request trace) or, when tr is nil, on
// a trace of the sink's own.
func NewSink(cfg Config, tr *telemetry.Trace) *Sink {
	if cfg.Cap <= 0 {
		cfg.Cap = DefaultCap
	}
	if tr == nil {
		tr = telemetry.New("", "", "local")
	}
	return &Sink{cfg: cfg, trace: tr, ring: make([]Event, cfg.Cap)}
}

// Trace returns the trace holding the sink's run spans.
func (s *Sink) Trace() *telemetry.Trace {
	if s == nil {
		return nil
	}
	return s.trace
}

// Bind teaches the sink the L1 geometry so it can stamp (and filter by)
// set indices: blockBytes and sets must be powers of two, ways >= 1. The
// engine calls this once before the run starts; events emitted before
// Bind carry Set -1 and no set filter applies to them.
func (s *Sink) Bind(blockBytes, sets uint64, ways int) {
	if s == nil {
		return
	}
	g := &geometry{setMask: sets - 1}
	for b := blockBytes; b > 1; b >>= 1 {
		g.shift++
	}
	g.setOf = make([]int32, sets*uint64(ways))
	for f := range g.setOf {
		g.setOf[f] = int32(f / ways)
	}
	if len(s.cfg.Sets) > 0 {
		g.keep = make([]bool, sets)
		for _, set := range s.cfg.Sets {
			if set >= 0 && set < len(g.keep) {
				g.keep[set] = true
			}
		}
	}
	s.geom.Store(g)
}

// Enabled reports whether the sink exists (the emit-site guard).
func (s *Sink) Enabled() bool { return s != nil }

// FrameFilter returns whether the set filter keeps events on each frame
// of an L1 with the given sets and ways (frame = set*ways + way, as Bind
// numbers them), or nil when it keeps every frame (no set filter, or no
// sink). Emit applies the same test; an emit site on the per-reference
// path consults the result to skip building events the filter would
// drop, which is most of them in a capture of a few sets.
func (s *Sink) FrameFilter(sets uint64, ways int) []bool {
	if s == nil || len(s.cfg.Sets) == 0 {
		return nil
	}
	keep := make([]bool, sets*uint64(ways))
	for _, set := range s.cfg.Sets {
		if set >= 0 && uint64(set) < sets {
			for w := 0; w < ways; w++ {
				keep[set*ways+w] = true
			}
		}
	}
	return keep
}

// AdvanceRef advances the reference-index clock by n demand L1 accesses,
// so every event carries the index of the access it happened under. The
// reference hierarchy advances it once per access; the engine adds up
// its accesses and advances it before anything reads the clock.
func (s *Sink) AdvanceRef(n uint64) {
	if s == nil {
		return
	}
	s.ref.Add(n)
}

// Ref returns the current reference index.
func (s *Sink) Ref() uint64 {
	if s == nil {
		return 0
	}
	return s.ref.Load()
}

// Emit records one event, stamping its Ref and Set, applying the filters,
// and writing it into the ring. Safe for concurrent use; allocates
// nothing.
func (s *Sink) Emit(ev Event) {
	if s == nil {
		return
	}
	if !s.cfg.Kinds.Has(ev.Kind) {
		return
	}
	// Stamp the set (from the frame when known, else from the block) and
	// apply the filters before touching the mutex: in a set-filtered
	// capture the overwhelming majority of events stop here.
	ev.Set = -1
	if g := s.geom.Load(); g != nil {
		switch {
		case ev.Frame >= 0 && int(ev.Frame) < len(g.setOf):
			ev.Set = g.setOf[ev.Frame]
		case ev.Block != 0:
			ev.Set = int32((ev.Block >> g.shift) & g.setMask)
		}
		// A set filter keeps only its sets, so events with no set
		// information (Set -1) fail it.
		if g.keep != nil && (ev.Set < 0 || !g.keep[ev.Set]) {
			return
		}
	}
	if s.cfg.BlockMax > 0 && ev.Block != 0 &&
		(ev.Block < s.cfg.BlockMin || ev.Block > s.cfg.BlockMax) {
		return
	}
	ev.Ref = s.ref.Load()
	s.mu.Lock()
	s.ring[s.head] = ev
	s.head++
	if s.head == len(s.ring) {
		s.head = 0
	}
	overwrote := s.n == len(s.ring)
	if overwrote {
		s.dropped++
	} else {
		s.n++
	}
	s.emitted++
	s.mu.Unlock()
	ctrEmitted.Inc()
	if overwrote {
		ctrDropped.Inc()
	}
}

// Len returns the number of events currently held.
func (s *Sink) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Emitted returns the number of events that passed the filters (dropped
// ones included).
func (s *Sink) Emitted() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.emitted
}

// Dropped returns the number of events overwritten by ring overflow.
func (s *Sink) Dropped() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Events returns a copy of the held events, oldest first.
func (s *Sink) Events() []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, s.n)
	start := s.head - s.n
	if start < 0 {
		start += len(s.ring)
	}
	for i := 0; i < s.n; i++ {
		out[i] = s.ring[(start+i)%len(s.ring)]
	}
	return out
}

// BeginSpan opens a run-level interval (a functional-warming stretch, a
// detailed measurement window, an audited run, one experiment point) at
// the given sim cycle, stamping the reference index and wall clock. Spans
// that aggregate several runs, like experiment points, pass cycle zero at
// both ends.
func (s *Sink) BeginSpan(name string, simCycle uint64) *telemetry.Span {
	if s == nil {
		return nil
	}
	return &telemetry.Span{Name: name, Start: time.Now(), SimStart: simCycle, RefStart: s.ref.Load()}
}

// EndSpan closes sp at the given sim cycle and records it on the sink's
// trace. A second End on the same span, or an End on the nil-sink span, is
// a no-op.
func (s *Sink) EndSpan(sp *telemetry.Span, simCycle uint64) {
	if s == nil || sp == nil || !sp.End.IsZero() {
		return
	}
	sp.End, sp.SimEnd, sp.RefEnd = time.Now(), simCycle, s.ref.Load()
	s.trace.Add(*sp)
}
