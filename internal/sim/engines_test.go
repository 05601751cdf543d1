package sim_test

// TestEnginesAgreeOnCorpus is the differential gate between the engine
// and its executable specification: every benchmark in the suite runs
// once under the reference loop (sim.RunReference) and once under the
// batched SoA engine (sim.Run), with the
// timekeeping tracker and a cache-decay evaluation attached and the
// victim-cache / prefetcher / limit-study mechanisms rotated across
// benchmarks, and the two sim.Results must be byte-identical in
// canonical JSON — CPU timing, hierarchy counters, predictor tallies,
// decay results, prefetch outputs and sampled estimates included. Each
// benchmark runs exact and under every sampling schedule: fixed-period,
// target-CI, phase, and segmented at one and two workers.
//
// This gate runs at a reduced reference count to keep its cost in check;
// full corpus-scale anchoring comes for free from the golden regression
// tests, whose on-disk entries were recorded under the reference loop and
// are verified under the engine.

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"testing"

	"timekeeping/internal/obs"
	"timekeeping/internal/sample"
	"timekeeping/internal/sim"
	"timekeeping/internal/workload"
)

// engineGateOptions attaches every observer the engines must agree on
// and rotates the mechanism under test by benchmark index.
func engineGateOptions(i int) sim.Options {
	opt := sim.Default()
	opt.WarmupRefs = 10_000
	opt.MeasureRefs = 40_000
	opt.Track = true
	opt.DecayIntervals = []uint64{1 << 12, 1 << 15}
	switch i % 5 {
	case 1:
		opt.VictimFilter = sim.VictimDecay
	case 2:
		opt.Prefetcher = sim.PrefetchTK
	case 3:
		opt.Prefetcher = sim.PrefetchNextLine
		opt.VictimFilter = sim.VictimCollins
	case 4:
		opt.Prefetcher = sim.PrefetchDBCP
	}
	// A few set-associative L1 points so the gate is not all
	// direct-mapped (every mechanism gets at least one, DBCP at i=14),
	// and a few limit-study points. The victim lookup runs before the
	// perfect-L1 shortcut, so the limit study meets the decay victim
	// cache (i=1), next-line+Collins on a 2-way L1 (i=8), no mechanism
	// (i=15) and timekeeping (i=22).
	if i%3 == 2 {
		opt.Hier.L1.Ways = 2
	}
	if i%7 == 1 {
		opt.Hier.PerfectL1 = true
	}
	return opt
}

// gateSchedules are the sampling schedules the gate runs besides the
// exact run. The policy is scaled to the gate's 40K measured references:
// a 2688-reference period gives 14 fixed-period windows, and 16 phase
// intervals of 2500 references each hold a 640-reference window.
var gateSchedules = []struct {
	name string
	tune func(*sample.Policy)
}{
	{"exact", nil},
	{"fixed", func(*sample.Policy) {}},
	{"target-ci", func(p *sample.Policy) { p.TargetRelCI, p.MinWindows = 0.05, 8 }},
	{"phase", func(p *sample.Policy) { p.Schedule, p.PhaseIntervals = sample.SchedulePhase, 16 }},
	{"segmented-1", func(p *sample.Policy) { p.SegmentWindows, p.Parallelism = 4, 1 }},
	{"segmented-2", func(p *sample.Policy) { p.SegmentWindows, p.Parallelism = 4, 2 }},
}

// gateOptions returns benchmark i's gate options under schedule tune
// (nil = an exact run).
func gateOptions(i int, tune func(*sample.Policy)) sim.Options {
	opt := engineGateOptions(i)
	if tune != nil {
		pol := sample.Policy{DetailedRefs: 512, WarmRefs: 2048, DetailedWarmRefs: 128}
		tune(&pol)
		opt.Sampling = &pol
	}
	return opt
}

func TestEnginesAgreeOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("2x26 runs per schedule; skipped under -short")
	}
	for i, bench := range workload.Names() {
		i, bench := i, bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			spec := workload.MustProfile(bench)
			for _, sc := range gateSchedules {
				sc := sc
				t.Run(sc.name, func(t *testing.T) {
					opt := gateOptions(i, sc.tune)
					ref, err := sim.RunReference(context.Background(), sim.Spec{Workload: spec, Opts: opt})
					if err != nil {
						t.Fatal(err)
					}
					fast, err := sim.Run(context.Background(), sim.Spec{Workload: spec, Opts: opt})
					if err != nil {
						t.Fatal(err)
					}
					if sc.tune != nil && ref.Estimate.Windows < 8 {
						t.Fatalf("only %d windows; the gate needs at least 8", ref.Estimate.Windows)
					}
					// TK_AUDIT audits the engine's exact runs; the
					// reference never audits.
					fast.Audit = nil

					// Canonical-JSON byte equality.
					rb, err := json.MarshalIndent(ref, "", " ")
					if err != nil {
						t.Fatal(err)
					}
					fb, err := json.MarshalIndent(fast, "", " ")
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(rb, fb) {
						t.Errorf("engines diverge:\nreference: %s\nfast:      %s", rb, fb)
					}
				})
			}
		})
	}
}

// TestProgressCountsEveryRef checks that a run's progress handle counts
// every reference the run simulates, under every gate schedule: done
// must reach the expected total, and both must equal the run's TotalRefs.
// A segmented run counts on the machines its segments build, so each of
// them must report to the run's handle.
func TestProgressCountsEveryRef(t *testing.T) {
	const bench = "gcc"
	i := slices.Index(workload.Names(), bench)
	spec := workload.MustProfile(bench)
	for _, sc := range gateSchedules {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			opt := gateOptions(i, sc.tune)
			opt.Progress = &obs.Progress{}
			res, err := sim.Run(context.Background(), sim.Spec{Workload: spec, Opts: opt})
			if err != nil {
				t.Fatal(err)
			}
			if done, want := opt.Progress.Done(), opt.Progress.Expected(); done != want || done != res.TotalRefs {
				t.Fatalf("progress counted %d refs of %d expected; the run simulated %d", done, want, res.TotalRefs)
			}
		})
	}
}
