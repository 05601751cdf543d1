package events

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestGenerationsArithmetic: reconstruction must use the tracker's exact
// boundaries — live from fill to last hit (zero when never hit), dead
// from last hit (or fill) to the closing fill.
func TestGenerationsArithmetic(t *testing.T) {
	evs := []Event{
		{Kind: Fill, Cycle: 100, Frame: 0, Block: 0x100},
		{Kind: Hit, Cycle: 150, Frame: 0},
		{Kind: Hit, Cycle: 300, Frame: 0},
		{Kind: Fill, Cycle: 1000, Frame: 0, Block: 0x200}, // closes the first generation
		{Kind: Fill, Cycle: 50, Frame: 1, Block: 0x300},
		{Kind: Fill, Cycle: 400, Frame: 1, Block: 0x400}, // zero-live close
		{Kind: Hit, Cycle: 450, Frame: 1},                // open at capture end
	}
	gens := Generations(evs)
	if len(gens) != 4 {
		t.Fatalf("%d generations, want 4: %+v", len(gens), gens)
	}
	// Frame 0, first generation: live 300-100, dead 1000-300.
	g := gens[0]
	if !g.Closed || g.Live != 200 || g.Dead != 700 || g.Hits != 2 || g.Block != 0x100 {
		t.Fatalf("gen[0] = %+v", g)
	}
	// Frame 0, second generation: open, no dead time yet.
	if g = gens[1]; g.Closed || g.Dead != 0 || g.Live != 0 || g.FillAt != 1000 {
		t.Fatalf("gen[1] = %+v", g)
	}
	// Frame 1, zero-live generation: all dead.
	if g = gens[2]; !g.Closed || g.Live != 0 || g.Dead != 350 || g.Hits != 0 {
		t.Fatalf("gen[2] = %+v", g)
	}
	// Frame 1, open with one hit: live so far, dead unknown.
	if g = gens[3]; g.Closed || g.Live != 50 || g.Dead != 0 || g.Hits != 1 {
		t.Fatalf("gen[3] = %+v", g)
	}
}

// TestGenerationsHitBeforeFill: a hit on a frame whose fill predates the
// capture window must not invent a generation.
func TestGenerationsHitBeforeFill(t *testing.T) {
	gens := Generations([]Event{{Kind: Hit, Cycle: 10, Frame: 3}})
	if len(gens) != 0 {
		t.Fatalf("generations from an orphan hit: %+v", gens)
	}
}

// chromeTrace is the envelope WriteChromeTrace emits.
type chromeTrace struct {
	TraceEvents []map[string]any `json:"traceEvents"`
}

// decodeTrace parses and structurally validates a Chrome trace: every
// event carries the required fields and every (pid, tid) track has
// monotonically non-decreasing timestamps.
func decodeTrace(t *testing.T, blob []byte) chromeTrace {
	t.Helper()
	var tr chromeTrace
	if err := json.Unmarshal(blob, &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	lastTS := map[[2]float64]float64{}
	for i, ev := range tr.TraceEvents {
		for _, field := range []string{"ph", "ts", "pid", "tid", "name"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("trace event %d lacks %q: %v", i, field, ev)
			}
		}
		ph := ev["ph"].(string)
		if ph == "M" {
			continue
		}
		track := [2]float64{ev["pid"].(float64), ev["tid"].(float64)}
		ts := ev["ts"].(float64)
		if ts < lastTS[track] {
			t.Fatalf("trace event %d: ts %v < %v on track %v", i, ts, lastTS[track], track)
		}
		lastTS[track] = ts
		if ph == "X" {
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("complete event %d lacks dur: %v", i, ev)
			}
		}
	}
	return tr
}

func TestWriteChromeTrace(t *testing.T) {
	s := NewSink(Config{Cap: 64}, nil)
	s.Bind(32, 4, 2)
	run := s.BeginSpan("run", 0)
	s.Emit(Event{Kind: Fill, Cycle: 100, Frame: 0, Block: 0x100, A: 190})
	s.Emit(Event{Kind: Hit, Cycle: 300, Frame: 0, A: 302})
	s.Emit(Event{Kind: MSHR, Cycle: 310, Frame: -1, A: 2, B: 8})
	s.Emit(Event{Kind: Evict, Cycle: 900, Frame: 0, Block: 0x100, A: 600})
	s.Emit(Event{Kind: Fill, Cycle: 900, Frame: 0, Block: 0x200})
	s.EndSpan(run, 1000)
	point := s.BeginSpan("base/gcc", 0) // zero sim extent: wall-clock track
	s.EndSpan(point, 0)

	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	tr := decodeTrace(t, buf.Bytes())

	var names []string
	var liveDur, deadDur float64
	procs := map[string]float64{} // process name -> pid
	for _, ev := range tr.TraceEvents {
		name := ev["name"].(string)
		names = append(names, name)
		switch name {
		case "live":
			liveDur = ev["dur"].(float64)
		case "dead":
			deadDur = ev["dur"].(float64)
		case "process_name":
			procs[ev["args"].(map[string]any)["name"].(string)] = ev["pid"].(float64)
		}
	}
	// The run span also sits on the sim-cycle track, at its cycle extent.
	simPid, ok := procs["run spans (sim cycles)"]
	if !ok {
		t.Fatalf("no sim-cycle track (processes %v)", procs)
	}
	onSim := false
	for _, ev := range tr.TraceEvents {
		if ev["pid"] == simPid && ev["name"] == "run" {
			onSim = ev["ts"] == float64(0) && ev["dur"] == float64(1000)
		}
	}
	if !onSim {
		t.Error("run span missing from the sim-cycle track at cycles 0..1000")
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{
		"process_name", "thread_name", // track metadata
		"live", "dead", // the closed generation's slices
		"hit", "evict", "demand MSHRs in flight", // markers and counter
		"run", "base/gcc", // spans on both clocks
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace lacks a %q event (have %s)", want, joined)
		}
	}
	if liveDur != 200 || deadDur != 600 {
		t.Fatalf("live/dead slice durations = %v/%v, want 200/600", liveDur, deadDur)
	}
}

func TestWriteJSONL(t *testing.T) {
	s := NewSink(Config{Cap: 16}, nil)
	sp := s.BeginSpan("warmup", 10)
	s.EndSpan(sp, 20)
	s.Emit(Event{Kind: Fill, Cycle: 5, Frame: 1, Block: 0x40})
	s.Emit(Event{Kind: Evict, Cycle: 9, Frame: 1, Block: 0x40, A: 4, B: EvictZeroLive})

	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d JSONL lines, want 3 (1 span + 2 events):\n%s", len(lines), buf.String())
	}
	var span map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &span); err != nil {
		t.Fatal(err)
	}
	if span["name"] != "warmup" || span["sim_start"] != float64(10) || span["sim_end"] != float64(20) {
		t.Fatalf("span line = %v", span)
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[2]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev["kind"] != "evict" || ev["cycle"] != float64(9) || ev["b"] != float64(EvictZeroLive) {
		t.Fatalf("event line = %v", ev)
	}
}
