package sim_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"timekeeping/internal/sim"
	"timekeeping/internal/workload"
)

// BenchmarkCoreThroughput is the core-throughput gate: the engine's
// speedup over the reference loop on a fixed sweep, against the committed
// BENCH_baseline.json. Each of five passes times the engine and then the
// reference over the same eight benchmarks, tracked and untracked, and
// contributes one paired ratio; a machine-wide slowdown slows both sides
// of a pass alike and cancels out of it. The gate takes the median ratio
// and fails below 85% of the baseline's speedup. Ratios, not refs/sec,
// so the baseline holds on any machine. The engine side includes the
// goroutine that generates each call's references beside the stepping
// loop (every warm-up and measurement here is a long call, and one runs
// at a time, so a P is free for it), which the reference loop does not
// have: on a 2-vCPU Xeon the median read 2.97–3.55× with it (eight runs)
// against 2.60–3.08× without, so the floor catches a smaller share of a
// stepping-loop regression than it did. Run it with
//
//	go test -run '^$' -bench '^BenchmarkCoreThroughput$' -benchtime 1x ./internal/sim
func BenchmarkCoreThroughput(b *testing.B) {
	const (
		passes    = 5
		tolerance = 0.15
	)
	blob, err := os.ReadFile(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		b.Fatal(err)
	}
	var base struct {
		Speedup float64 `json:"speedup"`
	}
	if err := json.Unmarshal(blob, &base); err != nil {
		b.Fatal(err)
	}

	opt := sim.Default()
	opt.WarmupRefs = 20_000
	opt.MeasureRefs = 80_000
	opt.Track = true
	plain := opt
	plain.Track = false
	var specs []sim.Spec
	for _, bench := range []string{"eon", "twolf", "vpr", "ammp", "swim", "mcf", "facerec", "gcc"} {
		wl := workload.MustProfile(bench)
		specs = append(specs, sim.Spec{Workload: wl, Opts: opt}, sim.Spec{Workload: wl, Opts: plain})
	}
	// sweep times one pass of the specs; both sides simulate the same
	// references, so the ratio of their times is the ratio of refs/sec.
	sweep := func(run func(context.Context, sim.Spec) (sim.Result, error)) time.Duration {
		start := time.Now()
		for _, s := range specs {
			if _, err := run(context.Background(), s); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start)
	}

	for i := 0; i < b.N; i++ {
		ratios := make([]float64, passes)
		for p := range ratios {
			eng := sweep(sim.Run)
			ref := sweep(sim.RunReference)
			ratios[p] = ref.Seconds() / eng.Seconds()
		}
		sort.Float64s(ratios)
		speedup := ratios[passes/2]
		floor := base.Speedup * (1 - tolerance)
		b.ReportMetric(speedup, "speedup")
		b.Logf("engine speedup over the reference %.2fx (median of %d paired passes %.2f), floor %.2fx (baseline %.2fx - %.0f%%)",
			speedup, passes, ratios, floor, base.Speedup, 100*tolerance)
		if speedup < floor {
			b.Fatalf("engine speedup regressed: %.2fx, floor %.2fx", speedup, floor)
		}
	}
}
