package sim_test

// Determinism suite for segment-parallel sampled simulation (the CI
// determinism leg selects these with `-run SampledParallel` under -race at
// GOMAXPROCS 2 and 8). The property under proof: at a fixed
// Policy.SegmentWindows, worker count and completion order are invisible —
// every parallelism level reproduces the sequential run bit for bit, and
// shares its result-cache key.

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"timekeeping/internal/sample"
	"timekeeping/internal/sim"
	"timekeeping/internal/simcache"
	"timekeeping/internal/workload"
)

// parallelOptions is the determinism suite's run shape: small enough that
// the full bench x config x parallelism matrix stays fast, large enough
// for several segments.
func parallelOptions(config string, par int) sim.Options {
	opt := sim.Default()
	opt.Track = true
	opt.WarmupRefs = 10_000
	opt.MeasureRefs = 200_000
	pol := sample.DefaultPolicy()
	pol.SegmentWindows = 2
	pol.Parallelism = par
	opt.Sampling = pol
	switch config {
	case "base":
	case "decay":
		opt.VictimFilter = sim.VictimDecay
		opt.DecayIntervals = []uint64{1 << 12, 1 << 14}
	case "tk-prefetch":
		opt.Prefetcher = sim.PrefetchTK
	default:
		panic("unknown config " + config)
	}
	return opt
}

var parallelBenches = []string{"mcf", "crafty", "twolf", "vpr", "ammp"}

// TestSampledParallelDeterminism: for five benchmarks across three
// mechanism configurations, every Parallelism level must reproduce the
// sequential segmented run's entire Result — estimate, pooled CPU/hier
// stats, tracker metrics, mechanism reports — bit for bit, and share its
// cache key.
func TestSampledParallelDeterminism(t *testing.T) {
	for _, bench := range parallelBenches {
		for _, config := range []string{"base", "decay", "tk-prefetch"} {
			bench, config := bench, config
			t.Run(bench+"/"+config, func(t *testing.T) {
				t.Parallel()
				seq, err := sim.Run(context.Background(),
					sim.Spec{Workload: workload.MustProfile(bench), Opts: parallelOptions(config, 0)})
				if err != nil {
					t.Fatal(err)
				}
				if seq.Estimate == nil || seq.Estimate.Windows < 2 {
					t.Fatalf("sequential run measured too few windows: %+v", seq.Estimate)
				}
				seqKey := simcache.Key(bench, parallelOptions(config, 0))
				for _, par := range []int{1, 2, 4, 8} {
					opt := parallelOptions(config, par)
					got, err := sim.Run(context.Background(),
						sim.Spec{Workload: workload.MustProfile(bench), Opts: opt})
					if err != nil {
						t.Fatalf("parallelism %d: %v", par, err)
					}
					if !reflect.DeepEqual(got, seq) {
						t.Errorf("parallelism %d result diverges from sequential:\n%+v\nvs\n%+v", par, got, seq)
					}
					if key := simcache.Key(bench, opt); key != seqKey {
						t.Errorf("parallelism %d cache key %s != sequential %s", par, key, seqKey)
					}
				}
			})
		}
	}
}

// sampledParallelGoldenIPC pins the segmented estimate per benchmark
// (base configuration, parallelOptions shape). A diff here means the
// segmented schedule's results changed; when that is deliberate,
// regenerate by logging res.Estimate.IPC.Mean from
// TestSampledParallelGoldenPinned and updating the table.
var sampledParallelGoldenIPC = map[string]float64{
	"mcf":    0.070464070579,
	"crafty": 4.324002256381,
	"twolf":  3.846319827380,
	"vpr":    4.285131810193,
	"ammp":   0.592259704251,
}

// TestSampledParallelGoldenPinned: segmented estimates are pinned to
// golden values, so determinism holds not just within a binary but across
// commits — any scheduler change that silently shifts results fails here.
func TestSampledParallelGoldenPinned(t *testing.T) {
	for _, bench := range parallelBenches {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			res, err := sim.Run(context.Background(),
				sim.Spec{Workload: workload.MustProfile(bench), Opts: parallelOptions("base", 4)})
			if err != nil {
				t.Fatal(err)
			}
			want := sampledParallelGoldenIPC[bench]
			if want == 0 {
				t.Fatalf("golden IPC for %s not pinned; measured %.9f", bench, res.Estimate.IPC.Mean)
			}
			if got := res.Estimate.IPC.Mean; math.Abs(got-want) > 1e-9 {
				t.Errorf("segmented IPC %.9f != pinned %.9f", got, want)
			}
		})
	}
}

// TestSampledParallelSchedulePositions: the segmented schedule must be a
// pure function of policy and budget — doubling Parallelism on a config
// with a different SegmentWindows produces a different (but internally
// consistent) estimate, while the same SegmentWindows always reproduces
// the same windows.
func TestSampledParallelSchedulePositions(t *testing.T) {
	a := sim.MustRun(workload.MustProfile("gzip"), parallelOptions("base", 2))
	b := sim.MustRun(workload.MustProfile("gzip"), parallelOptions("base", 2))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same configuration not reproducible")
	}
	wide := parallelOptions("base", 2)
	wide.Sampling.SegmentWindows = 4
	c := sim.MustRun(workload.MustProfile("gzip"), wide)
	if c.Estimate.WarmRefs == a.Estimate.WarmRefs {
		t.Error("different SegmentWindows should re-warm a different number of segments")
	}
	if key := simcache.Key("gzip", wide); key == simcache.Key("gzip", parallelOptions("base", 2)) {
		t.Error("different SegmentWindows share a cache key")
	}
}

// TestSampledParallelSpeedup is the wall-clock floor: at 8 workers the
// segmented run must finish at least 2x faster than the same schedule on
// one worker (min of 5 attempts, to shrug off scheduler noise). Skipped on
// machines without enough cores to demonstrate parallelism.
func TestSampledParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison in -short mode")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("only %d CPUs: cannot demonstrate parallel speedup", runtime.NumCPU())
	}
	opt := func(par int) sim.Options {
		o := parallelOptions("base", par)
		// One window per segment and a larger budget: 16+ independent
		// segments dominated by per-segment warming, the shape parallel
		// execution accelerates best.
		o.Sampling.SegmentWindows = 1
		o.WarmupRefs = 60_000
		o.MeasureRefs = 16 * 33_000
		return o
	}
	spec := workload.MustProfile("mcf")
	minWall := func(par int) time.Duration {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 5; i++ {
			start := time.Now()
			if _, err := sim.Run(context.Background(), sim.Spec{Workload: spec, Opts: opt(par)}); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	seq := minWall(1)
	par := minWall(8)
	speedup := float64(seq) / float64(par)
	t.Logf("1 worker %v, 8 workers %v: %.2fx", seq, par, speedup)
	if speedup < 2.0 {
		t.Errorf("parallel speedup %.2fx < 2.0x (sequential %v, parallel %v)", speedup, seq, par)
	}
}

// TestSampledParallelRejectsUncopyableStream: every segment replays a
// copy of the stream, so an explicit stream that cannot be copied, such
// as a trace file reader, is rejected before the run reads it.
func TestSampledParallelRejectsUncopyableStream(t *testing.T) {
	checkRejectedUnread(t, parallelOptions("base", 2))
}

// allocatedBy returns the bytes the heap allocated while run ran.
func allocatedBy(run func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// sampledAllocs runs bench tracked under the default policy, segmented
// at segWindows windows per segment (0 = the fixed-period schedule) on
// par workers, and returns the bytes the run allocated.
func sampledAllocs(t *testing.T, bench string, opt sim.Options, segWindows, par int) uint64 {
	t.Helper()
	opt.Track = true
	opt.Sampling = sample.DefaultPolicy()
	opt.Sampling.SegmentWindows, opt.Sampling.Parallelism = segWindows, par
	spec := sim.Spec{Workload: workload.MustProfile(bench), Opts: opt}
	var err error
	n := allocatedBy(func() { _, err = sim.Run(context.Background(), spec) })
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSampledParallelRecyclesTables is the count gate for table takeover.
// A tracked mcf run at default scale, five segments of four windows,
// allocates at most Parallelism + 0.5 times what a one-segment run of the
// same spec allocates: each new segment machine takes over a finished
// segment's seen set and block-history table, so the tables grow once per
// worker. Regrowing them in every segment allocates about 4× at any
// worker count.
func TestSampledParallelRecyclesTables(t *testing.T) {
	opt := sim.Default()
	one := sampledAllocs(t, "mcf", opt, sample.MaxWindowCount, 1)
	for _, par := range []int{1, 2} {
		got := sampledAllocs(t, "mcf", opt, 4, par)
		ratio, bound := float64(got)/float64(one), float64(par)+0.5
		t.Logf("%d workers: %.1f MB, %.2f× the one-segment run's %.1f MB", par, float64(got)/1e6, ratio, float64(one)/1e6)
		if ratio > bound {
			t.Errorf("%d workers: a five-segment run allocated %.2f× a one-segment run, want at most %.1f×", par, ratio, bound)
		}
	}
}

// TestSegmentedRunBuildsNoIdleMachine: a segmented run builds a machine
// for each segment and none for itself, so a one-segment eon run
// allocates at most 1.25× a fixed-period run of the same spec, which
// builds one machine too.
func TestSegmentedRunBuildsNoIdleMachine(t *testing.T) {
	opt := sim.Default()
	opt.WarmupRefs, opt.MeasureRefs = 50_000, 200_000
	fixed := sampledAllocs(t, "eon", opt, 0, 0)
	seg := sampledAllocs(t, "eon", opt, sample.MaxWindowCount, 1)
	ratio := float64(seg) / float64(fixed)
	t.Logf("one segment %.2f MB, fixed period %.2f MB: %.2f×", float64(seg)/1e6, float64(fixed)/1e6, ratio)
	if ratio > 1.25 {
		t.Errorf("a one-segment run allocated %.2f× a fixed-period run, want at most 1.25×", ratio)
	}
}

// TestSampledParallelRejectsUnknownMechanism: a segmented run builds no
// machine of its own, yet an unknown victim filter or prefetcher is
// still rejected, with the text building it gave, before the stream is
// read.
func TestSampledParallelRejectsUnknownMechanism(t *testing.T) {
	for want, tune := range map[string]func(*sim.Options){
		`sim: unknown victim filter "bogus"`: func(o *sim.Options) { o.VictimFilter = "bogus" },
		`sim: unknown prefetcher "bogus"`:    func(o *sim.Options) { o.Prefetcher = "bogus" },
	} {
		opt := parallelOptions("base", 2)
		tune(&opt)
		var n atomic.Uint64
		spec := workload.MustProfile("gcc")
		stream := &countingStream{s: spec.Stream(opt.Seed), n: &n}
		_, err := sim.Run(context.Background(), sim.Spec{Name: "gcc", Stream: stream, Opts: opt})
		if err == nil || err.Error() != want {
			t.Errorf("err = %v, want %q", err, want)
		}
		if n.Load() != 0 {
			t.Errorf("%s: the rejected run read %d references", want, n.Load())
		}
	}
}

func init() {
	// Self-check the golden table covers exactly the suite's benches.
	if len(sampledParallelGoldenIPC) != len(parallelBenches) {
		panic(fmt.Sprintf("golden table has %d entries, suite has %d benches",
			len(sampledParallelGoldenIPC), len(parallelBenches)))
	}
}
