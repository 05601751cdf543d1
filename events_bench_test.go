package timekeeping

// Overhead benchmarks for generation-event tracing: the same Figure 1
// baseline run with capture off, with a set-filtered capture (the
// intended interactive use: a handful of sets), and with a full capture.
// CI records the three as BENCH_events.txt. TestEventsCaptureAllocs and
// TestEventsOverhead are the in-tree guards on the filtered
// configuration.

import (
	"context"
	"testing"
	"time"

	"timekeeping/internal/events"
	"timekeeping/internal/sim"
	"timekeeping/internal/workload"
)

// eventsBenchOptions is the Figure 1 base configuration at the reduced
// benchmark scale (matching benchRunner), tracker attached.
func eventsBenchOptions() sim.Options {
	opt := sim.Default()
	opt.Track = true
	opt.WarmupRefs = 20_000
	opt.MeasureRefs = 80_000
	return opt
}

// runEventsBench simulates gcc once per iteration. cfg == nil runs with
// tracing disabled (the nil-sink path every production run takes by
// default); otherwise each iteration gets a fresh sink so ring state
// never carries over.
func runEventsBench(b *testing.B, cfg *events.Config) {
	b.Helper()
	spec := workload.MustProfile("gcc")
	for i := 0; i < b.N; i++ {
		opt := eventsBenchOptions()
		if cfg != nil {
			opt.Events = events.NewSink(*cfg, nil)
		}
		res, err := sim.Run(context.Background(), sim.Spec{Workload: spec, Opts: opt})
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalRefs == 0 {
			b.Fatal("no references simulated")
		}
		if cfg != nil && opt.Events.Len() == 0 {
			b.Fatal("capture enabled but no events recorded")
		}
	}
}

func BenchmarkEventsOff(b *testing.B) { runEventsBench(b, nil) }

// filteredEvents is the four-set capture the guards and
// BenchmarkEventsFiltered measure.
func filteredEvents() *events.Config {
	return &events.Config{Cap: 1 << 16, Sets: []int{0, 1, 2, 3}}
}

// BenchmarkEventsFiltered captures four sets — the acceptance budget is
// ≤10% wall-time overhead versus BenchmarkEventsOff.
func BenchmarkEventsFiltered(b *testing.B) { runEventsBench(b, filteredEvents()) }

func BenchmarkEventsFull(b *testing.B) {
	runEventsBench(b, &events.Config{Cap: 1 << 16})
}

// minWallAlternating runs a and b `runs` times each, alternating them and
// which of the two starts each round, and returns each one's fastest wall
// time. The minimum is the least contaminated by scheduling interference,
// and alternating puts both sides under any load that comes and goes
// during the comparison, where timing one side's runs after the other's
// would charge it to one side alone.
func minWallAlternating(runs int, a, b func()) (minA, minB time.Duration) {
	minA, minB = time.Duration(1<<63-1), time.Duration(1<<63-1)
	timed := func(f func(), best *time.Duration) {
		start := time.Now()
		f()
		*best = min(*best, time.Since(start))
	}
	for i := 0; i < runs; i++ {
		if i%2 == 0 {
			timed(a, &minA)
			timed(b, &minB)
		} else {
			timed(b, &minB)
			timed(a, &minA)
		}
	}
	return minA, minB
}

// eventsRun returns one gcc run at eventsBenchOptions' scale, with a
// fresh sink built from cfg, or with tracing off when cfg is nil.
func eventsRun(t *testing.T, cfg *events.Config) func() {
	spec := workload.MustProfile("gcc")
	return func() {
		opt := eventsBenchOptions()
		if cfg != nil {
			opt.Events = events.NewSink(*cfg, nil)
		}
		if _, err := sim.Run(context.Background(), sim.Spec{Workload: spec, Opts: opt}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEventsCaptureAllocs gates the filtered capture by a count that
// machine load and the race detector cannot move, where
// TestEventsOverhead's wall-clock budget moves with both: a four-set
// capture of the Figure 1 baseline may allocate only a fixed amount more
// than the tracing-off run, never an amount that grows with the
// references simulated.
func TestEventsCaptureAllocs(t *testing.T) {
	const extra = 64
	off := testing.AllocsPerRun(3, eventsRun(t, nil))
	filtered := testing.AllocsPerRun(3, eventsRun(t, filteredEvents()))
	t.Logf("heap allocations per run: %.0f with capture off, %.0f with the four-set capture", off, filtered)
	if filtered > off+extra {
		t.Errorf("four-set capture made %.0f heap allocations per run, more than the %.0f of capture off + %d",
			filtered, off, extra)
	}
}

// TestEventsOverhead is the wall-time guard on the filtered capture: a
// four-set capture of the Figure 1 baseline must cost no more than 10%
// over the tracing-off run, plus a fixed slack that keeps the guard
// meaningful without turning CI scheduling jitter into failures. Both
// sides run on the engine, the path every capture takes, five times each,
// alternating, and each side's fastest run counts. The race
// detector slows the captured run's generator and engine unevenly, so
// under it the budget is only logged; TestEventsCaptureAllocs holds
// either way.
func TestEventsOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead guard repeats full runs; skipped under -short")
	}
	filteredCfg := filteredEvents()

	// Interleave a warmup pass so neither side benefits from cache
	// warmth the other paid for.
	eventsRun(t, nil)()
	eventsRun(t, filteredCfg)()

	off, filtered := minWallAlternating(5, eventsRun(t, nil), eventsRun(t, filteredCfg))

	limit := off + off/10 + 25*time.Millisecond
	t.Logf("events off %v, filtered %v (budget %v)", off, filtered, limit)
	if raceEnabled {
		t.Skip("overhead budget asserted without the race detector")
	}
	if filtered > limit {
		t.Errorf("filtered event capture costs %v, budget %v (off %v + 10%% + slack)",
			filtered, limit, off)
	}
}
