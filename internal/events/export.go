package events

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"timekeeping/internal/telemetry"
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

// WriteChromeTrace renders the sink's capture as Chrome trace-event JSON
// (open with https://ui.perfetto.dev) through telemetry.WriteChromeTrace,
// which draws the trace's spans on their node's wall-clock track and the
// run spans again on a sim-cycle track. The capture adds the "L1 frames"
// process: each traced frame is a track whose generations appear as a
// green "live" slice followed by a red "dead" slice (the paper's Figure
// 2/3 timeline); demand hits, prefetch and victim-buffer activity are
// instant markers on the same track; MSHR occupancy is a counter track
// (in captures without a set filter, which drops the setless occupancy
// marks). Sim cycles map to trace microseconds 1:1.
func (s *Sink) WriteChromeTrace(w io.Writer) error {
	if s == nil {
		return fmt.Errorf("events: no sink to export")
	}
	return telemetry.WriteChromeTrace(w, s.trace.TraceID(), s.trace.Spans(), framesProcess(s.Events()))
}

// traceEvent is one Chrome trace-event object (the subset Perfetto
// needs): ph X = complete slice, i = instant, C = counter, M = metadata.
type traceEvent struct {
	tid int
	ts  uint64
	obj map[string]any
}

// framesProcess renders events as the "L1 frames" process.
func framesProcess(evs []Event) telemetry.Process {
	var tes []traceEvent
	add := func(tid int, ts uint64, obj map[string]any) {
		obj["tid"] = tid
		obj["ts"] = ts
		tes = append(tes, traceEvent{tid: tid, ts: ts, obj: obj})
	}

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
			add(tid, g.FillAt, map[string]any{
				"ph": "X", "name": "live", "dur": g.Live, "cname": "good", "args": args,
			})
			if g.Closed {
				add(tid, g.FillAt+g.Live, map[string]any{
					"ph": "X", "name": "dead", "dur": g.Dead, "cname": "terrible", "args": args,
				})
			}
		} else if g.Closed {
			add(tid, g.FillAt, map[string]any{
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
				add(int(ev.Frame)+1, ev.Cycle, map[string]any{
					"ph": "i", "name": "hit", "s": "t",
					"args": map[string]any{"ref": ev.Ref, "done": ev.A},
				})
			}
		case MSHR:
			add(0, ev.Cycle, map[string]any{
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
			add(tid, ev.Cycle, map[string]any{
				"ph": "i", "name": ev.Kind.String(), "s": "t", "args": args,
			})
		}
		if ev.Frame >= 0 {
			frames[ev.Frame] = true
		}
	}

	for f := range frames {
		add(int(f)+1, 0, map[string]any{
			"ph": "M", "name": "thread_name", "args": map[string]any{"name": fmt.Sprintf("frame %d", f)},
		})
	}

	// Stable, per-track-monotone order: metadata first, then by ts.
	sort.SliceStable(tes, func(i, j int) bool {
		a, b := tes[i], tes[j]
		if a.tid != b.tid {
			return a.tid < b.tid
		}
		am, bm := a.obj["ph"] == "M", b.obj["ph"] == "M"
		if am != bm {
			return am
		}
		return a.ts < b.ts
	})
	p := telemetry.Process{Name: "L1 frames (sim cycles)", Events: make([]map[string]any, len(tes))}
	for i, te := range tes {
		p.Events[i] = te.obj
	}
	return p
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

// WriteJSONL renders the capture as one JSON object per line: the trace's
// spans first, in telemetry.WriteJSONL's span-line form (keyed by
// "span_id"), then events oldest-first (keyed by "kind").
func (s *Sink) WriteJSONL(w io.Writer) error {
	if s == nil {
		return fmt.Errorf("events: no sink to export")
	}
	if err := telemetry.WriteJSONL(w, s.trace.Spans()); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
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

// WriteFile exports the capture to path: Chrome trace-event JSON by
// default, compact JSONL when the path ends in .jsonl.
func (s *Sink) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = s.WriteJSONL(f)
	} else {
		err = s.WriteChromeTrace(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
