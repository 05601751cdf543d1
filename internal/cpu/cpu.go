// Package cpu implements the out-of-order processor timing model that
// drives the memory hierarchy — the stand-in for the paper's 8-issue
// SimpleScalar core (Table 1: 128-entry instruction window, 8 instructions
// per cycle).
//
// The model is trace-driven and keyed to what actually determines the
// paper's IPC results: how much miss latency the window can hide.
//
//   - The frontend fetches in order at the issue width.
//   - An instruction may dispatch only when instruction i-Window has
//     retired (the reorder-buffer constraint) — this bounds memory-level
//     parallelism exactly the way a 128-entry RUU does.
//   - Loads issue to the memory system at dispatch (or, for
//     pointer-chasing references marked DepPrev, when the previous load's
//     value arrives) and complete when the hierarchy returns data.
//   - Stores and software prefetches access the memory system for its
//     timing/contents side effects but retire without waiting (a store
//     buffer is assumed).
//   - Retirement is in-order at the issue width.
//
// Time is kept in integer "subcycles" (Width subcycles per cycle) so the
// model is exact and deterministic with no floating point.
//
// Model is the reference core: internal/engine transcribes it, and only
// the tests that compare the two drive it. Config and Result are shared
// by both.
package cpu

import (
	"context"
	"fmt"

	"timekeeping/internal/trace"
)

// MemSystem is the memory hierarchy the core issues references into.
// Access performs the reference at issueAt (a cycle count) and returns the
// cycle at which its data is available to the core.
type MemSystem interface {
	Access(r trace.Ref, issueAt uint64) (doneAt uint64)
}

// Config sizes the core.
type Config struct {
	// Width is instructions fetched/issued/retired per cycle (8).
	Width int
	// Window is the instruction window / reorder buffer size (128).
	Window int
	// ExecLat is the non-memory execute latency in cycles (1).
	ExecLat uint64
}

// DefaultConfig returns the Table 1 core.
func DefaultConfig() Config { return Config{Width: 8, Window: 128, ExecLat: 1} }

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Width < 1 {
		return fmt.Errorf("cpu: width %d < 1", c.Width)
	}
	if c.Window < c.Width {
		return fmt.Errorf("cpu: window %d < width %d", c.Window, c.Width)
	}
	if c.ExecLat == 0 {
		return fmt.Errorf("cpu: exec latency must be >= 1")
	}
	return nil
}

// Result summarises execution so far. All counters are cumulative over the
// model's lifetime, so callers can snapshot before and after a measurement
// window and subtract (the standard warm-up pattern).
type Result struct {
	Insts  uint64  // instructions retired (references + gaps)
	Refs   uint64  // memory references processed
	Loads  uint64  // demand loads
	Stores uint64  // stores
	Cycles uint64  // total cycles (final retirement)
	IPC    float64 // Insts / Cycles
}

// Minus returns the delta between two snapshots (r - earlier), with IPC
// recomputed over the window.
func (r Result) Minus(earlier Result) Result {
	d := Result{
		Insts:  r.Insts - earlier.Insts,
		Refs:   r.Refs - earlier.Refs,
		Loads:  r.Loads - earlier.Loads,
		Stores: r.Stores - earlier.Stores,
		Cycles: r.Cycles - earlier.Cycles,
	}
	if d.Cycles > 0 {
		d.IPC = float64(d.Insts) / float64(d.Cycles)
	}
	return d
}

// retireRec remembers one reference's retirement for the window
// constraint.
type retireRec struct {
	idx    uint64 // instruction index of the reference
	retire uint64 // retirement time in subcycles
}

// Model is the core's run state. Construct with New; a Model is good for
// one Run.
type Model struct {
	cfg Config
	mem MemSystem

	sub uint64 // subcycles per cycle == Width

	idx          uint64 // instruction index of the last processed ref
	fetchSub     uint64
	retireSub    uint64
	lastLoadDone uint64 // subcycle the most recent load's value arrived

	refs, loads, stores uint64

	// ring holds recent reference retirements for window lookups. Its
	// length is a power of two >= 2*Window so the instruction at
	// idx-Window is always at or between recorded entries.
	ring []retireRec
	head int // next slot to write
	n    int // entries filled
}

// New builds a core over the given memory system.
func New(cfg Config, mem MemSystem) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	size := 1
	for size < 2*cfg.Window {
		size <<= 1
	}
	return &Model{cfg: cfg, mem: mem, sub: uint64(cfg.Width), ring: make([]retireRec, size)}
}

// retireOf returns the retirement subcycle of instruction j, which must
// not be newer than the last recorded reference. Between recorded
// references, non-memory instructions retire one per subcycle after the
// preceding reference.
func (m *Model) retireOf(j uint64) uint64 {
	if m.n == 0 {
		return 0
	}
	// Entries are monotonic in idx from oldest to newest; binary-search
	// for the newest entry with idx <= j.
	oldest := (m.head - m.n + len(m.ring)) & (len(m.ring) - 1)
	if m.ring[oldest].idx > j {
		// j predates everything we remember: it retired long ago.
		return 0
	}
	lo, hi := 0, m.n-1 // offsets from oldest; invariant: ring[lo].idx <= j
	for lo < hi {
		mid := (lo + hi + 1) / 2
		i := (oldest + mid) & (len(m.ring) - 1)
		if m.ring[i].idx <= j {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	best := m.ring[(oldest+lo)&(len(m.ring)-1)]
	return best.retire + (j - best.idx)
}

func (m *Model) record(idx, retire uint64) {
	m.ring[m.head] = retireRec{idx: idx, retire: retire}
	m.head = (m.head + 1) & (len(m.ring) - 1)
	if m.n < len(m.ring) {
		m.n++
	}
}

// Step processes one reference and returns its issue cycle (useful to
// observers that want a timestamp for the reference).
func (m *Model) Step(r *trace.Ref) (issueCycle uint64) {
	gap := uint64(r.Gap)
	m.idx += gap + 1
	m.fetchSub += gap + 1

	dispatch := m.fetchSub
	if m.idx > uint64(m.cfg.Window) {
		if w := m.retireOf(m.idx - uint64(m.cfg.Window)); w > dispatch {
			dispatch = w
		}
	}

	issue := dispatch
	if r.DepPrev && m.lastLoadDone > issue {
		issue = m.lastLoadDone
	}
	issueCycle = issue / m.sub

	execDone := dispatch + m.cfg.ExecLat*m.sub
	var completion uint64
	switch r.Kind {
	case trace.Load:
		doneCycle := m.mem.Access(*r, issueCycle)
		doneSub := doneCycle * m.sub
		completion = doneSub
		if execDone > completion {
			completion = execDone
		}
		m.lastLoadDone = completion
	default: // stores and software prefetches do not block retirement
		m.mem.Access(*r, issueCycle)
		completion = execDone
	}

	// The gap instructions retire first at full width, then the reference.
	retire := m.retireSub + gap + 1
	if completion > retire {
		retire = completion
	}
	m.retireSub = retire
	m.record(m.idx, retire)
	return issueCycle
}

// FunctionalMemSystem is implemented by memory systems that offer a
// contents-only access path for functional warming (internal/hier does).
// AccessFunctional must update cache/predictor state for the reference as
// of cycle now but perform no timing simulation.
type FunctionalMemSystem interface {
	AccessFunctional(r trace.Ref, now uint64)
}

// StepFunctional processes one reference through the functional-warming
// path: the OoO window, dependence and latency machinery are bypassed and
// the clock advances at the fixed nominal rate of subPerInst subcycles
// per instruction, so warmed timekeeping state (dead times, decay
// intervals) sees time pass at roughly the detailed execution rate. The
// retirement ring is still maintained, which keeps a later Step's window
// constraint consistent.
func (m *Model) StepFunctional(r *trace.Ref, fmem FunctionalMemSystem, subPerInst uint64) {
	gap := uint64(r.Gap)
	m.idx += gap + 1
	adv := (gap + 1) * subPerInst
	m.fetchSub += adv
	m.retireSub += adv
	fmem.AccessFunctional(*r, m.retireSub/m.sub)
	m.record(m.idx, m.retireSub)
}

// RunFunctional drives up to maxRefs references through the functional
// path at a nominal rate of cpi cycles per instruction (0 = 1.0),
// returning the cumulative snapshot. If the memory system does not
// implement FunctionalMemSystem it falls back to detailed execution.
func (m *Model) RunFunctional(ctx context.Context, s trace.Stream, maxRefs uint64, cpi float64) (Result, error) {
	fmem, ok := m.mem.(FunctionalMemSystem)
	if !ok {
		return m.RunContext(ctx, s, maxRefs)
	}
	if cpi <= 0 {
		cpi = 1
	}
	subPerInst := uint64(cpi*float64(m.sub) + 0.5)
	if subPerInst == 0 {
		subPerInst = 1
	}
	var done uint64
	var r trace.Ref
	for done < maxRefs {
		if done%ctxCheckRefs == 0 {
			if err := ctx.Err(); err != nil {
				return m.Snapshot(), err
			}
		}
		if !s.Next(&r) {
			break
		}
		m.StepFunctional(&r, fmem, subPerInst)
		done++
		m.refs++
		switch r.Kind {
		case trace.Load:
			m.loads++
		case trace.Store:
			m.stores++
		}
	}
	return m.Snapshot(), nil
}

// Run drives up to maxRefs references from the stream (or until it ends)
// and returns the cumulative execution summary (see Result).
func (m *Model) Run(s trace.Stream, maxRefs uint64) Result {
	res, _ := m.RunContext(context.Background(), s, maxRefs)
	return res
}

// ctxCheckRefs is how many references RunContext processes between context
// checks: fine enough that cancellation lands within microseconds, coarse
// enough that the check is invisible in profiles.
const ctxCheckRefs = 4096

// RunContext is Run with cancellation at reference-loop granularity: when
// ctx is cancelled the model stops between references and returns the
// snapshot so far alongside ctx's error.
func (m *Model) RunContext(ctx context.Context, s trace.Stream, maxRefs uint64) (Result, error) {
	var done uint64
	var r trace.Ref
	for done < maxRefs {
		if done%ctxCheckRefs == 0 {
			if err := ctx.Err(); err != nil {
				return m.Snapshot(), err
			}
		}
		if !s.Next(&r) {
			break
		}
		m.Step(&r)
		done++
		m.refs++
		switch r.Kind {
		case trace.Load:
			m.loads++
		case trace.Store:
			m.stores++
		}
	}
	return m.Snapshot(), nil
}

// Snapshot returns the cumulative execution summary without running.
func (m *Model) Snapshot() Result {
	res := Result{
		Insts:  m.idx,
		Refs:   m.refs,
		Loads:  m.loads,
		Stores: m.stores,
		Cycles: (m.retireSub + m.sub - 1) / m.sub,
	}
	if res.Cycles > 0 {
		res.IPC = float64(res.Insts) / float64(res.Cycles)
	}
	return res
}

// Now returns the current retirement cycle — a monotonic notion of "how
// far the program has executed".
func (m *Model) Now() uint64 { return m.retireSub / m.sub }
