package sim_test

// Sampled-mode integration tests (the CI sampled leg selects these with
// `go test -run Sample ./...`). They live in the external test package so
// they can compare sampled estimates against the golden-stats corpus
// (internal/golden imports internal/sim).

import (
	"context"
	"errors"
	"math"
	"sort"
	"testing"
	"time"

	"timekeeping/internal/golden"
	"timekeeping/internal/sample"
	"timekeeping/internal/sim"
	"timekeeping/internal/simcache"
	"timekeeping/internal/workload"
)

// sampledOptions is the golden corpus configuration with default sampling
// attached — the estimates then target exactly the numbers the corpus
// pins.
func sampledOptions() sim.Options {
	opt := golden.CorpusOptions()
	opt.Sampling = sample.DefaultPolicy()
	return opt
}

// TestSampledEstimateMatchesGolden is the tentpole accuracy criterion:
// for several benchmarks the sampled run's 95% confidence intervals must
// contain the exact full-run statistics pinned in testdata/golden, and
// the IPC point estimate must be within 2% relative error.
func TestSampledEstimateMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-scale sampled runs in -short mode")
	}
	benches := []string{"mcf", "crafty", "twolf", "vpr", "ammp"}
	for _, bench := range benches {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			want, err := golden.Load(bench)
			if err != nil {
				t.Fatalf("loading golden entry: %v", err)
			}
			res, err := sim.Run(context.Background(), sim.Spec{Workload: workload.MustProfile(bench), Opts: sampledOptions()})
			if err != nil {
				t.Fatal(err)
			}
			e := res.Estimate
			if e == nil {
				t.Fatal("sampled run returned no estimate")
			}
			if e.Windows < 2 {
				t.Fatalf("only %d windows", e.Windows)
			}

			trueIPC := want.CPU.IPC
			relErr := math.Abs(e.IPC.Mean-trueIPC) / trueIPC
			if relErr > 0.02 {
				t.Errorf("IPC estimate %.4f vs true %.4f: relative error %.2f%% > 2%%",
					e.IPC.Mean, trueIPC, 100*relErr)
			}
			if !e.IPC.Contains(trueIPC) {
				t.Errorf("true IPC %.4f outside 95%% CI [%.4f, %.4f]",
					trueIPC, e.IPC.CILow, e.IPC.CIHigh)
			}
			if l1 := want.Hier.MissRate(); !e.L1MissRate.Contains(l1) {
				t.Errorf("true L1 miss rate %.4f outside 95%% CI [%.4f, %.4f]",
					l1, e.L1MissRate.CILow, e.L1MissRate.CIHigh)
			}
			if l2 := want.Hier.L2MissRate(); e.L2MissRate.N > 0 && !e.L2MissRate.Contains(l2) {
				t.Errorf("true L2 miss rate %.4f outside 95%% CI [%.4f, %.4f]",
					l2, e.L2MissRate.CILow, e.L2MissRate.CIHigh)
			}
		})
	}
}

// TestSampledSpeedup checks the performance criterion on the benchmark
// where the exact run is most expensive per reference. Each of five
// rounds times one exact and one sampled run back to back, alternating
// which goes first, and the gate is the median of the per-round
// exact/sampled wall-time ratios: load the two runs of a round share
// cancels out of their ratio. The full demonstration is
// BenchmarkSampledSpeedup; the in-suite threshold is 2.0×.
func TestSampledSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-scale timing comparison in -short mode")
	}
	spec := workload.MustProfile("facerec")
	wall := func(opt sim.Options) time.Duration {
		start := time.Now()
		if _, err := sim.Run(context.Background(), sim.Spec{Workload: spec, Opts: opt}); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}

	// Both sides take the default engine, so the ratio measures sampling
	// itself rather than one engine against the other.
	exact, sampled := golden.CorpusOptions(), sampledOptions()
	const rounds = 5
	ratios := make([]float64, rounds)
	for i := range ratios {
		var e, s time.Duration
		if i%2 == 0 {
			e = wall(exact)
			s = wall(sampled)
		} else {
			s = wall(sampled)
			e = wall(exact)
		}
		ratios[i] = float64(e) / float64(s)
	}
	sorted := append([]float64(nil), ratios...)
	sort.Float64s(sorted)
	median := sorted[rounds/2]
	t.Logf("paired exact/sampled wall ratios %.2f: median %.2fx", ratios, median)
	if median < 2.0 {
		t.Errorf("sampled speedup median %.2fx < 2.0x (paired ratios %.2f)", median, ratios)
	}
}

// TestSampledDistinctCacheKeys pins the cache-correctness property: a
// sampled run must never be answered from an exact run's cache entry (or
// another policy's).
func TestSampledDistinctCacheKeys(t *testing.T) {
	exact := golden.CorpusOptions()
	sampled := sampledOptions()
	other := sampledOptions()
	other.Sampling.DetailedRefs *= 2

	kExact := simcache.Key("gcc", exact)
	kSampled := simcache.Key("gcc", sampled)
	kOther := simcache.Key("gcc", other)
	if kExact == kSampled {
		t.Error("exact and sampled runs share a cache key")
	}
	if kSampled == kOther {
		t.Error("different sampling policies share a cache key")
	}
}

func TestSampledAuditRejected(t *testing.T) {
	opt := sampledOptions()
	opt.Audit = true
	_, err := sim.Run(context.Background(), sim.Spec{Workload: workload.MustProfile("gcc"), Opts: opt})
	if !errors.Is(err, sim.ErrSampledAudit) {
		t.Fatalf("err = %v, want ErrSampledAudit", err)
	}
}

// TestSampledEnvAuditSkipped: TK_AUDIT forces audit onto every run, but
// sampled runs cannot be audited (the oracle expects the lockstep detailed
// path); the policy is to skip them silently rather than fail.
func TestSampledEnvAuditSkipped(t *testing.T) {
	t.Setenv("TK_AUDIT", "1")
	opt := sampledOptions()
	opt.WarmupRefs = 20_000
	opt.MeasureRefs = 100_000
	res, err := sim.Run(context.Background(), sim.Spec{Workload: workload.MustProfile("gcc"), Opts: opt})
	if err != nil {
		t.Fatal(err)
	}
	if res.Audit != nil {
		t.Fatal("sampled run was audited under TK_AUDIT")
	}
	if res.Estimate == nil {
		t.Fatal("no estimate")
	}
}

func TestSampledPolicyValidation(t *testing.T) {
	opt := sampledOptions()
	opt.Sampling.DetailedRefs = 0
	if _, err := sim.Run(context.Background(), sim.Spec{Workload: workload.MustProfile("gcc"), Opts: opt}); err == nil {
		t.Fatal("invalid policy accepted")
	}
}

func TestSampledTargetCI(t *testing.T) {
	opt := sampledOptions()
	opt.WarmupRefs = 20_000
	opt.MeasureRefs = 400_000
	opt.Sampling.TargetRelCI = 0.5 // loose: met at MinWindows
	opt.Sampling.MinWindows = 2
	res, err := sim.Run(context.Background(), sim.Spec{Workload: workload.MustProfile("crafty"), Opts: opt})
	if err != nil {
		t.Fatal(err)
	}
	e := res.Estimate
	if e == nil {
		t.Fatal("no estimate")
	}
	if !e.TargetMet {
		t.Fatalf("loose 50%% target not met after %d windows (RelCI %.3f)", e.Windows, e.IPC.RelCI())
	}
	if e.IPC.RelCI() > 0.5 {
		t.Fatalf("stopped with RelCI %.3f > target", e.IPC.RelCI())
	}
}

func TestSampledDeterminism(t *testing.T) {
	opt := sampledOptions()
	opt.WarmupRefs = 20_000
	opt.MeasureRefs = 150_000
	a := sim.MustRun(workload.MustProfile("twolf"), opt)
	b := sim.MustRun(workload.MustProfile("twolf"), opt)
	if a.CPU != b.CPU {
		t.Fatalf("pooled CPU results differ: %+v vs %+v", a.CPU, b.CPU)
	}
	if *a.Estimate != *b.Estimate {
		t.Fatalf("estimates differ: %+v vs %+v", a.Estimate, b.Estimate)
	}
	if a.Estimate.Windows == 0 {
		t.Fatal("no windows")
	}
}

// TestSampledResultShape pins the split accounting: pooled counters cover
// the measured windows, TotalRefs covers everything, and the warm/detailed
// split adds up.
func TestSampledResultShape(t *testing.T) {
	opt := sampledOptions()
	opt.WarmupRefs = 20_000
	opt.MeasureRefs = 150_000
	res, err := sim.Run(context.Background(), sim.Spec{Workload: workload.MustProfile("gzip"), Opts: opt})
	if err != nil {
		t.Fatal(err)
	}
	e := res.Estimate
	if e == nil {
		t.Fatal("no estimate")
	}
	if want := uint64(e.Windows) * e.Policy.DetailedRefs; res.CPU.Refs != want {
		t.Errorf("pooled refs = %d, want %d (windows x window length)", res.CPU.Refs, want)
	}
	if res.Hier.Accesses != res.CPU.Refs {
		t.Errorf("hier accesses %d != cpu refs %d", res.Hier.Accesses, res.CPU.Refs)
	}
	if res.TotalRefs != e.WarmRefs+e.DetailedRefs {
		t.Errorf("TotalRefs %d != warm %d + detailed %d", res.TotalRefs, e.WarmRefs, e.DetailedRefs)
	}
	if res.Tracker == nil {
		t.Error("tracker missing from sampled base-config run")
	}
}
