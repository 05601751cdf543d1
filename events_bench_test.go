package timekeeping

// Overhead benchmarks for generation-event tracing: the same Figure 1
// baseline run with capture off, with a set-filtered capture (the
// intended interactive use: a handful of sets), and with a full capture.
// CI records the three as BENCH_events.txt; TestEventsOverhead is the
// in-tree guard on the filtered configuration.

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

// BenchmarkEventsFiltered captures four sets — the acceptance budget is
// ≤10% wall-time overhead versus BenchmarkEventsOff.
func BenchmarkEventsFiltered(b *testing.B) {
	runEventsBench(b, &events.Config{Cap: 1 << 16, Sets: []int{0, 1, 2, 3}})
}

func BenchmarkEventsFull(b *testing.B) {
	runEventsBench(b, &events.Config{Cap: 1 << 16})
}

// minWall runs f `runs` times and returns the fastest wall time — the
// standard way to compare code paths on a noisy machine, since the
// minimum is the least contaminated by scheduling interference.
func minWall(runs int, f func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < runs; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// TestEventsOverhead is the wall-time guard on the filtered capture: a
// four-set capture of the Figure 1 baseline must cost no more than 10%
// over the tracing-off run, plus a fixed slack that keeps the guard
// meaningful without turning CI scheduling jitter into failures. Both
// sides run on the engine, the path every capture takes.
func TestEventsOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead guard repeats full runs; skipped under -short")
	}
	spec := workload.MustProfile("gcc")
	run := func(cfg *events.Config) func() {
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
	filteredCfg := &events.Config{Cap: 1 << 16, Sets: []int{0, 1, 2, 3}}

	// Interleave a warmup pass so neither side benefits from cache
	// warmth the other paid for.
	run(nil)()
	run(filteredCfg)()

	off := minWall(5, run(nil))
	filtered := minWall(5, run(filteredCfg))

	limit := off + off/10 + 25*time.Millisecond
	t.Logf("events off %v, filtered %v (budget %v)", off, filtered, limit)
	if filtered > limit {
		t.Errorf("filtered event capture costs %v, budget %v (off %v + 10%% + slack)",
			filtered, limit, off)
	}
}
