package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"timekeeping/internal/core"
	"timekeeping/internal/cpu"
	"timekeeping/internal/events"
	"timekeeping/internal/hier"
	"timekeeping/internal/sample"
	"timekeeping/internal/workload"
)

// TestEventsEndToEnd runs the Figure 1 baseline configuration (tracker
// attached, no mechanisms) with a set-filtered event capture and
// validates the Perfetto export: every trace event carries the required
// fields, every track's timestamps are monotone, and the run-level spans
// are present.
func TestEventsEndToEnd(t *testing.T) {
	sink := events.NewSink(events.Config{Cap: 1 << 16, Sets: []int{0, 1, 2, 3}})
	opt := Default()
	opt.Track = true
	opt.WarmupRefs = 10_000
	opt.MeasureRefs = 40_000
	opt.Events = sink

	res, err := Run(context.Background(), Spec{Workload: workload.MustProfile("gcc"), Opts: opt})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tracker == nil || res.Tracker.Generations == 0 {
		t.Fatal("fig1 baseline produced no tracked generations")
	}
	if sink.Len() == 0 {
		t.Fatal("no events captured")
	}
	for _, ev := range sink.Events() {
		if ev.Set >= 4 {
			t.Fatalf("set filter leaked set %d: %+v", ev.Set, ev)
		}
	}

	spans := map[string]bool{}
	for _, sp := range sink.Spans() {
		spans[sp.Name] = true
		if sp.WallEnd.IsZero() {
			t.Fatalf("span %q left open", sp.Name)
		}
	}
	// An audited run (TK_AUDIT) names its top span audited-run.
	runSpan := "run"
	if res.Audit != nil {
		runSpan = "audited-run"
	}
	for _, want := range []string{runSpan, "warmup", "measure"} {
		if !spans[want] {
			t.Fatalf("missing %q span (have %v)", want, spans)
		}
	}

	var buf bytes.Buffer
	if err := sink.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	validateChromeTrace(t, buf.Bytes())
}

// validateChromeTrace checks the trace-event JSON the way Perfetto's
// importer would: required fields on every event, per-track monotone
// timestamps, durations on complete slices.
func validateChromeTrace(t *testing.T, blob []byte) {
	t.Helper()
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
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
		ph, _ := ev["ph"].(string)
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
				t.Fatalf("complete slice %d lacks dur: %v", i, ev)
			}
		}
	}
}

// TestEventsMatchTracker is the reconstruction cross-check: generations
// rebuilt from the event stream must carry exactly the live and dead
// times the timekeeping tracker contributed to its histograms — same
// boundaries, same clamped arithmetic, for every closed generation.
func TestEventsMatchTracker(t *testing.T) {
	sink := events.NewSink(events.Config{Cap: 1 << 18})
	h := hier.New(hier.DefaultConfig())
	h.SetEvents(sink)

	tracker := core.NewTracker(h.L1().NumFrames())
	type key struct{ block, start uint64 }
	trackerGens := map[key][]core.Generation{}
	tracker.OnGeneration = func(g core.Generation) {
		k := key{g.Block, g.StartAt}
		trackerGens[k] = append(trackerGens[k], g)
	}
	h.AddObserver(tracker)

	m := cpu.New(cpu.DefaultConfig(), h)
	spec := workload.MustProfile("twolf")
	m.Run(spec.Stream(1), 40_000)

	if sink.Dropped() != 0 {
		t.Fatalf("ring overflowed (%d dropped): the capture is not complete", sink.Dropped())
	}
	var closed int
	for _, g := range events.Generations(sink.Events()) {
		if !g.Closed {
			continue
		}
		closed++
		// Multiset match: a block can open two generations at the same
		// cycle (out-of-order issue), so find any exact counterpart.
		k := key{g.Block, g.FillAt}
		cands := trackerGens[k]
		found := -1
		for i, tg := range cands {
			if g.EndAt == tg.EndAt && g.Live == tg.LiveTime && g.Dead == tg.DeadTime && g.Hits == tg.Hits {
				found = i
				break
			}
		}
		if found < 0 {
			t.Fatalf("reconstructed generation has no tracker counterpart:\n events: %+v\ncandidates: %+v", g, cands)
		}
		trackerGens[k] = append(cands[:found], cands[found+1:]...)
	}
	var remaining int
	for _, gs := range trackerGens {
		remaining += len(gs)
	}
	if remaining != 0 || closed == 0 {
		t.Fatalf("%d closed reconstructions, %d tracker generations unmatched", closed, remaining)
	}
}

// TestEventsSampledRun: the sampling engine labels its phases as spans
// (functional warming, detailed warming, measurement windows) on the same
// sink.
func TestEventsSampledRun(t *testing.T) {
	sink := events.NewSink(events.Config{Cap: 1 << 14})
	opt := Default()
	opt.WarmupRefs = 5_000
	opt.MeasureRefs = 60_000
	opt.Sampling = &sample.Policy{DetailedRefs: 1024, WarmRefs: 8192, DetailedWarmRefs: 256}
	opt.Events = sink

	if _, err := Run(context.Background(), Spec{Workload: workload.MustProfile("eon"), Opts: opt}); err != nil {
		t.Fatal(err)
	}
	var warm, windows int
	for _, sp := range sink.Spans() {
		switch {
		case sp.Name == "functional-warm":
			warm++
		case len(sp.Name) > 6 && sp.Name[:6] == "window":
			windows++
		}
	}
	if warm == 0 || windows < 2 {
		t.Fatalf("sampled spans: %d functional-warm, %d windows", warm, windows)
	}
}
