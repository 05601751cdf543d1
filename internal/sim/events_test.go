package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"timekeeping/internal/core"
	"timekeeping/internal/cpu"
	"timekeeping/internal/events"
	"timekeeping/internal/hier"
	"timekeeping/internal/sample"
	"timekeeping/internal/telemetry"
	"timekeeping/internal/workload"
)

// TestEventsEndToEnd runs the Figure 1 baseline configuration (tracker
// attached, no mechanisms) with a set-filtered event capture and
// validates the Perfetto export: every trace event carries the required
// fields, every track's timestamps are monotone, and the run-level spans
// are present.
func TestEventsEndToEnd(t *testing.T) {
	sink := events.NewSink(events.Config{Cap: 1 << 16, Sets: []int{0, 1, 2, 3}}, nil)
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
	for _, sp := range sink.Trace().Spans() {
		spans[sp.Name] = true
		if sp.End.IsZero() {
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
	sink := events.NewSink(events.Config{Cap: 1 << 18}, nil)
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
	sink := events.NewSink(events.Config{Cap: 1 << 14}, nil)
	opt := Default()
	opt.WarmupRefs = 5_000
	opt.MeasureRefs = 60_000
	opt.Sampling = &sample.Policy{DetailedRefs: 1024, WarmRefs: 8192, DetailedWarmRefs: 256}
	opt.Events = sink

	if _, err := Run(context.Background(), Spec{Workload: workload.MustProfile("eon"), Opts: opt}); err != nil {
		t.Fatal(err)
	}
	var warm, windows int
	for _, sp := range sink.Trace().Spans() {
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

// TestEventsSegmentedRunBindsSink: a segmented run, on either loop,
// records no events and no spans (each segment steps its own machine on
// its own clock) and builds no machine of its own, but it still binds the
// sink to the L1 geometry as building one did, so an event emitted on
// the sink afterwards is stamped with its set.
func TestEventsSegmentedRunBindsSink(t *testing.T) {
	for name, run := range map[string]func(context.Context, Spec) (Result, error){"engine": Run, "reference": RunReference} {
		sink := events.NewSink(events.Config{Cap: 1 << 10}, nil)
		opt := Default()
		opt.WarmupRefs, opt.MeasureRefs = 5_000, 60_000
		opt.Sampling = &sample.Policy{DetailedRefs: 1024, WarmRefs: 8192, DetailedWarmRefs: 256, SegmentWindows: 2, Parallelism: 2}
		opt.Events = sink
		if _, err := run(context.Background(), Spec{Workload: workload.MustProfile("eon"), Opts: opt}); err != nil {
			t.Fatal(err)
		}
		if n, spans := sink.Len(), len(sink.Trace().Spans()); n != 0 || spans != 0 {
			t.Fatalf("%s: segmented run captured %d events and %d spans, want none", name, n, spans)
		}
		sink.Emit(events.Event{Kind: events.Fill, Frame: int32(5 * opt.Hier.L1.Ways)})
		if evs := sink.Events(); len(evs) != 1 || evs[0].Set != 5 {
			t.Fatalf("%s: event on set 5's first frame captured as %+v; the sink is not bound", name, evs)
		}
	}
}

// TestEngineEventsMatchReference is the event differential test: the
// engine must emit the reference loop's generation events at the same
// points and in the same order, so a capture is the same whichever
// machine ran it. Each configuration runs on both with identical options,
// and the events, the spans without their wall-clock stamps and the full
// results must be equal.
func TestEngineEventsMatchReference(t *testing.T) {
	type config struct {
		name  string
		bench string
		sets  []int
		tune  func(*Options)
	}
	configs := []config{
		{"twolf-timekeeping", "twolf", nil, func(o *Options) { o.Prefetcher = PrefetchTK }},
		{"twolf-timekeeping-sets", "twolf", []int{0, 1, 2, 3}, func(o *Options) { o.Prefetcher = PrefetchTK }},
		{"gcc-dbcp-decay-2way", "gcc", nil, func(o *Options) {
			o.Prefetcher = PrefetchDBCP
			o.VictimFilter = VictimDecay
			o.DecayIntervals = []uint64{1 << 12, 1 << 15}
			o.Hier.L1.Ways = 2
		}},
		{"facerec-nextline-collins-perfect", "facerec", nil, func(o *Options) {
			o.Prefetcher = PrefetchNextLine
			o.VictimFilter = VictimCollins
			o.Hier.PerfectL1 = true
		}},
		{"eon-sampled", "eon", nil, func(o *Options) {
			o.WarmupRefs, o.MeasureRefs = 5_000, 60_000
			o.Sampling = &sample.Policy{DetailedRefs: 1024, WarmRefs: 8192, DetailedWarmRefs: 256}
		}},
	}
	for _, c := range configs {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			capture := func(run func(context.Context, Spec) (Result, error)) (Result, *events.Sink) {
				t.Helper()
				opt := Default()
				opt.Track = true
				opt.WarmupRefs, opt.MeasureRefs = 10_000, 40_000
				c.tune(&opt)
				opt.Events = events.NewSink(events.Config{Cap: 1 << 18, Sets: c.sets}, nil)
				res, err := run(context.Background(), Spec{Workload: workload.MustProfile(c.bench), Opts: opt})
				if err != nil {
					t.Fatal(err)
				}
				return res, opt.Events
			}
			ref, refSink := capture(RunReference)
			eng, engSink := capture(Run)

			// TK_AUDIT audits the engine's exact runs; the reference never
			// audits, so the audit summary and span name are set aside.
			eng.Audit = nil
			if !reflect.DeepEqual(ref, eng) {
				t.Fatalf("results differ:\nreference %+v\nengine    %+v", ref, eng)
			}
			if refSink.Dropped() != 0 || refSink.Len() == 0 {
				t.Fatalf("reference capture held %d events and dropped %d; the comparison needs all of them", refSink.Len(), refSink.Dropped())
			}
			if a, b := refSink.Events(), engSink.Events(); !reflect.DeepEqual(a, b) {
				t.Fatalf("events differ: reference %d, engine %d; first difference %s", len(a), len(b), firstEventDiff(a, b))
			}
			// Each sink records on its own trace, so trace and span IDs
			// differ along with the wall-clock stamps.
			simSpans := func(s *events.Sink) []telemetry.Span {
				spans := s.Trace().Spans()
				for i := range spans {
					spans[i].Start, spans[i].End = time.Time{}, time.Time{}
					spans[i].TraceID, spans[i].SpanID, spans[i].Parent = "", "", ""
					if spans[i].Name == "audited-run" {
						spans[i].Name = "run"
					}
				}
				return spans
			}
			if a, b := simSpans(refSink), simSpans(engSink); !reflect.DeepEqual(a, b) {
				t.Fatalf("spans differ:\nreference %+v\nengine    %+v", a, b)
			}
		})
	}
}

// firstEventDiff describes the first position where two event lists
// differ.
func firstEventDiff(a, b []events.Event) string {
	for i := range a {
		if i >= len(b) {
			return fmt.Sprintf("at %d: engine ends, reference has %+v", i, a[i])
		}
		if a[i] != b[i] {
			return fmt.Sprintf("at %d:\nreference %+v\nengine    %+v", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("at %d: reference ends, engine has %+v", len(a), b[len(a)])
}

// TestSetFilteredCaptureKeepsItsSets: a four-set capture of a default-
// length twolf run fits the default ring. MSHR occupancy marks belong to
// no set, so the filter drops them instead of letting them overwrite the
// frame events it was asked for.
func TestSetFilteredCaptureKeepsItsSets(t *testing.T) {
	sink := events.NewSink(events.Config{Sets: []int{0, 1, 2, 3}}, nil)
	opt := Default()
	opt.Track = true
	opt.Events = sink
	if _, err := Run(context.Background(), Spec{Workload: workload.MustProfile("twolf"), Opts: opt}); err != nil {
		t.Fatal(err)
	}
	if sink.Dropped() != 0 {
		t.Fatalf("capture held %d events and dropped %d", sink.Len(), sink.Dropped())
	}
	for _, ev := range sink.Events() {
		if ev.Set < 0 || ev.Set > 3 {
			t.Fatalf("set filter kept an event off its sets: %+v", ev)
		}
	}
}
