package events

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Gen is one cache-frame generation reconstructed from the event stream,
// with the tracker's exact clamped arithmetic (see core.Tracker): live
// time runs from the fill to the last demand hit (zero when the block was
// never hit), dead time from the last hit (or the fill) to the eviction.
type Gen struct {
	Frame  int32
	Set    int32
	Block  uint64
	FillAt uint64
	EndAt  uint64 // eviction cycle; last-seen cycle for open generations
	Live   uint64
	Dead   uint64
	Hits   uint64
	Closed bool // an eviction ended this generation inside the capture
}

// genState is the in-progress reconstruction per frame.
type genState struct {
	gen     Gen
	lastHit uint64
}

// clampSub mirrors the tracker's interval arithmetic: a-b clamped at zero
// (reference issue times are only approximately monotonic).
func clampSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// Generations replays a Fill/Hit event stream (oldest first, as returned
// by Sink.Events) into per-frame generations. A Fill on a frame with an
// open generation closes it at the fill cycle — the same boundary the
// tracker uses. Generations still open when the stream ends are returned
// with Closed == false and their dead time left zero.
func Generations(evs []Event) []Gen {
	open := map[int32]*genState{}
	var out []Gen
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case Fill:
			if st := open[ev.Frame]; st != nil {
				out = append(out, closeGen(st, ev.Cycle))
			}
			open[ev.Frame] = &genState{
				gen: Gen{
					Frame:  ev.Frame,
					Set:    ev.Set,
					Block:  ev.Block,
					FillAt: ev.Cycle,
				},
				lastHit: ev.Cycle,
			}
		case Hit:
			st := open[ev.Frame]
			if st == nil {
				continue // generation started before the capture window
			}
			st.gen.Hits++
			if ev.Cycle > st.lastHit {
				st.lastHit = ev.Cycle
			}
		}
	}
	for _, st := range open {
		g := st.gen
		g.EndAt = st.lastHit
		if g.Hits > 0 {
			g.Live = clampSub(st.lastHit, g.FillAt)
		}
		out = append(out, g)
	}
	// Stable: back-to-back generations of one block can share a fill
	// cycle (out-of-order issue), and emission order must survive.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Frame != out[j].Frame {
			return out[i].Frame < out[j].Frame
		}
		return out[i].FillAt < out[j].FillAt
	})
	return out
}

// closeGen ends st's generation at the eviction cycle, mirroring the
// tracker's endGeneration.
func closeGen(st *genState, now uint64) Gen {
	g := st.gen
	g.EndAt = now
	g.Closed = true
	if g.Hits > 0 {
		g.Live = clampSub(st.lastHit, g.FillAt)
		g.Dead = clampSub(now, st.lastHit)
	} else {
		g.Dead = clampSub(now, g.FillAt)
	}
	return g
}

// Chrome trace-event pids. One trace carries three "processes": the
// per-frame timeline (sim cycles, 1 cycle = 1 µs), run spans on the sim
// clock, and run spans on the wall clock.
const (
	pidFrames    = 1
	pidSimSpans  = 2
	pidWallSpans = 3
)

// traceEvent is one Chrome trace-event object (the subset Perfetto
// needs): ph X = complete slice, i = instant, C = counter, M = metadata.
type traceEvent struct {
	pid, tid int
	ts       uint64
	obj      map[string]any
}

// WriteChromeTrace renders the sink's capture as Chrome trace-event JSON
// (open with https://ui.perfetto.dev). Each traced L1 frame is a track
// whose generations appear as a green "live" slice followed by a red
// "dead" slice (the paper's Figure 2/3 timeline); demand hits, prefetch
// and victim-buffer activity are instant markers on the same track; MSHR
// occupancy is a counter track (in captures without a set filter, which
// drops the setless occupancy marks); run spans appear on dedicated
// sim-clock and wall-clock tracks. Sim cycles map to trace microseconds 1:1.
func (s *Sink) WriteChromeTrace(w io.Writer) error {
	if s == nil {
		return fmt.Errorf("events: no sink to export")
	}
	evs := s.Events()
	spans := s.Spans()

	var tes []traceEvent
	add := func(pid, tid int, ts uint64, obj map[string]any) {
		obj["pid"] = pid
		obj["tid"] = tid
		obj["ts"] = ts
		tes = append(tes, traceEvent{pid: pid, tid: tid, ts: ts, obj: obj})
	}
	meta := func(pid, tid int, kind, name string) {
		add(pid, tid, 0, map[string]any{
			"ph": "M", "name": kind, "args": map[string]any{"name": name},
		})
	}

	meta(pidFrames, 0, "process_name", "L1 frames (sim cycles)")

	// Generation slices per frame track.
	frames := map[int32]bool{}
	for _, g := range Generations(evs) {
		frames[g.Frame] = true
		tid := int(g.Frame) + 1
		args := map[string]any{
			"block": fmt.Sprintf("%#x", g.Block),
			"set":   g.Set,
			"hits":  g.Hits,
			"ref":   "closed",
		}
		if !g.Closed {
			args["ref"] = "open at capture end"
		}
		if g.Hits > 0 {
			add(pidFrames, tid, g.FillAt, map[string]any{
				"ph": "X", "name": "live", "dur": g.Live, "cname": "good", "args": args,
			})
			if g.Closed {
				add(pidFrames, tid, g.FillAt+g.Live, map[string]any{
					"ph": "X", "name": "dead", "dur": g.Dead, "cname": "terrible", "args": args,
				})
			}
		} else if g.Closed {
			add(pidFrames, tid, g.FillAt, map[string]any{
				"ph": "X", "name": "dead (zero live)", "dur": g.Dead, "cname": "terrible", "args": args,
			})
		}
	}

	// Instant and counter events.
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case Fill, Hit:
			// Rendered as generation slices above; hits additionally as
			// thread-scoped instants so access intervals are visible.
			if ev.Kind == Hit {
				add(pidFrames, int(ev.Frame)+1, ev.Cycle, map[string]any{
					"ph": "i", "name": "hit", "s": "t",
					"args": map[string]any{"ref": ev.Ref, "done": ev.A},
				})
			}
		case MSHR:
			add(pidFrames, 0, ev.Cycle, map[string]any{
				"ph": "C", "name": "demand MSHRs in flight",
				"args": map[string]any{"inflight": ev.A},
			})
		default:
			tid := 0 // events without a frame land on the process track
			if ev.Frame >= 0 {
				tid = int(ev.Frame) + 1
			}
			args := map[string]any{"ref": ev.Ref, "a": ev.A, "b": ev.B}
			if ev.Block != 0 {
				args["block"] = fmt.Sprintf("%#x", ev.Block)
			}
			add(pidFrames, tid, ev.Cycle, map[string]any{
				"ph": "i", "name": ev.Kind.String(), "s": "t", "args": args,
			})
		}
		if ev.Frame >= 0 {
			frames[ev.Frame] = true
		}
	}

	for f := range frames {
		meta(pidFrames, int(f)+1, "thread_name", fmt.Sprintf("frame %d", f))
	}

	// Run spans: sim-clock extents for spans that advanced sim time,
	// wall-clock extents for aggregating spans (experiment points).
	var wall0 int64
	s.mu.Lock()
	if !s.wall0.IsZero() {
		wall0 = s.wall0.UnixMicro()
	}
	s.mu.Unlock()
	haveSim, haveWall := false, false
	for _, sp := range spans {
		if sp.WallEnd.IsZero() {
			continue // still open; nothing renderable
		}
		args := map[string]any{
			"sim_cycles": sp.SimEnd - sp.SimStart,
			"refs":       sp.RefEnd - sp.RefStart,
			"wall_us":    sp.WallEnd.Sub(sp.WallStart).Microseconds(),
		}
		if sp.SimEnd > sp.SimStart {
			haveSim = true
			add(pidSimSpans, 1, sp.SimStart, map[string]any{
				"ph": "X", "name": sp.Name, "dur": sp.SimEnd - sp.SimStart, "args": args,
			})
		} else {
			haveWall = true
			ts := uint64(sp.WallStart.UnixMicro() - wall0)
			add(pidWallSpans, 1, ts, map[string]any{
				"ph": "X", "name": sp.Name,
				"dur": uint64(sp.WallEnd.Sub(sp.WallStart).Microseconds()), "args": args,
			})
		}
	}
	if haveSim {
		meta(pidSimSpans, 1, "process_name", "run spans (sim cycles)")
	}
	if haveWall {
		meta(pidWallSpans, 1, "process_name", "run spans (wall clock)")
	}

	// Stable, per-track-monotone order: metadata first, then by ts.
	sort.SliceStable(tes, func(i, j int) bool {
		a, b := tes[i], tes[j]
		if a.pid != b.pid {
			return a.pid < b.pid
		}
		if a.tid != b.tid {
			return a.tid < b.tid
		}
		am, bm := a.obj["ph"] == "M", b.obj["ph"] == "M"
		if am != bm {
			return am
		}
		return a.ts < b.ts
	})

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, te := range tes {
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		b, err := json.Marshal(te.obj)
		if err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// jsonlEvent is the compact JSONL wire form of one event.
type jsonlEvent struct {
	Kind  string `json:"kind"`
	Cycle uint64 `json:"cycle"`
	Ref   uint64 `json:"ref"`
	Block uint64 `json:"block,omitempty"`
	Frame int32  `json:"frame"`
	Set   int32  `json:"set"`
	A     uint64 `json:"a,omitempty"`
	B     uint64 `json:"b,omitempty"`
}

// jsonlSpan is the JSONL wire form of one run span.
type jsonlSpan struct {
	Span      string `json:"span"`
	SimStart  uint64 `json:"sim_start"`
	SimEnd    uint64 `json:"sim_end"`
	RefStart  uint64 `json:"ref_start"`
	RefEnd    uint64 `json:"ref_end"`
	WallStart int64  `json:"wall_start_us"`
	WallEnd   int64  `json:"wall_end_us"`
}

// WriteJSONL renders the capture as one JSON object per line: spans first
// (keyed by "span"), then events oldest-first (keyed by "kind").
func (s *Sink) WriteJSONL(w io.Writer) error {
	if s == nil {
		return fmt.Errorf("events: no sink to export")
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, sp := range s.Spans() {
		if sp.WallEnd.IsZero() {
			continue
		}
		if err := enc.Encode(jsonlSpan{
			Span:      sp.Name,
			SimStart:  sp.SimStart,
			SimEnd:    sp.SimEnd,
			RefStart:  sp.RefStart,
			RefEnd:    sp.RefEnd,
			WallStart: sp.WallStart.UnixMicro(),
			WallEnd:   sp.WallEnd.UnixMicro(),
		}); err != nil {
			return err
		}
	}
	for _, ev := range s.Events() {
		if err := enc.Encode(jsonlEvent{
			Kind:  ev.Kind.String(),
			Cycle: ev.Cycle,
			Ref:   ev.Ref,
			Block: ev.Block,
			Frame: ev.Frame,
			Set:   ev.Set,
			A:     ev.A,
			B:     ev.B,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}
