package sim_test

// Phase-sampling integration tests (the CI phase leg selects these with
// `go test -run Phase ./...`). They live in the external test package so
// they can compare phase-sampled estimates against the golden-stats
// corpus (internal/golden imports internal/sim).

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"sync"
	"testing"

	"timekeeping/internal/golden"
	"timekeeping/internal/sample"
	"timekeeping/internal/sim"
	"timekeeping/internal/simcache"
	"timekeeping/internal/workload"
)

// phaseOptions is the golden corpus configuration on the phase schedule —
// the same detailed-window budget as sampledOptions, spent on cluster
// representatives instead of a periodic grid.
func phaseOptions() sim.Options {
	opt := golden.CorpusOptions()
	pol := sample.DefaultPolicy()
	pol.Schedule = sample.SchedulePhase
	opt.Sampling = pol
	return opt
}

// phaseBenchRow is one benchmark's phase-vs-fixed comparison in the
// BENCH_phase.json artifact.
type phaseBenchRow struct {
	Bench        string  `json:"bench"`
	ExactIPC     float64 `json:"exact_ipc"`
	FixedIPC     float64 `json:"fixed_ipc"`
	PhaseIPC     float64 `json:"phase_ipc"`
	FixedRelErr  float64 `json:"fixed_rel_err"`
	PhaseRelErr  float64 `json:"phase_rel_err"`
	FixedRelCI   float64 `json:"fixed_rel_ci"`
	PhaseRelCI   float64 `json:"phase_rel_ci"`
	FixedWindows int     `json:"fixed_windows"`
	PhaseWindows int     `json:"phase_windows"`
	PhaseK       int     `json:"phase_k"`
}

// phaseBenchReport is the BENCH_phase.json schema: per-bench rows plus the
// suite means the acceptance criterion is asserted on.
type phaseBenchReport struct {
	Benches          int             `json:"benches"`
	MeanFixedRelErr  float64         `json:"mean_fixed_rel_err"`
	MeanPhaseRelErr  float64         `json:"mean_phase_rel_err"`
	MeanFixedRelCI   float64         `json:"mean_fixed_rel_ci"`
	MeanPhaseRelCI   float64         `json:"mean_phase_rel_ci"`
	DetailedRefsEach uint64          `json:"detailed_refs_each"`
	Rows             []phaseBenchRow `json:"rows"`
}

// TestPhaseBeatsFixedPeriodAcrossSuite is the tentpole acceptance
// criterion: at equal detailed-reference budget, the phase-aware schedule
// must achieve BOTH lower mean relative IPC error (against the exact
// golden runs) and narrower mean relative 95% CI than the fixed-period
// schedule, across the full 26-benchmark suite. With TK_PHASE_BENCH_OUT
// set, the per-bench comparison is written there as the BENCH_phase.json
// CI artifact.
func TestPhaseBeatsFixedPeriodAcrossSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("26 corpus-scale sampled run pairs in -short mode")
	}
	benches := workload.Names()
	rows := make([]phaseBenchRow, len(benches))
	var wg sync.WaitGroup
	errs := make([]error, len(benches))
	sem := make(chan struct{}, 8)
	for i, bench := range benches {
		wg.Add(1)
		go func(i int, bench string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			row, err := comparePhaseFixed(bench)
			rows[i], errs[i] = row, err
		}(i, bench)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", benches[i], err)
		}
	}

	var rep phaseBenchReport
	rep.Benches = len(rows)
	rep.Rows = rows
	var sumFE, sumPE, sumFC, sumPC float64
	for _, r := range rows {
		sumFE += r.FixedRelErr
		sumPE += r.PhaseRelErr
		sumFC += r.FixedRelCI
		sumPC += r.PhaseRelCI
		if r.FixedWindows != r.PhaseWindows {
			t.Errorf("%s: budgets differ — fixed %d windows vs phase %d", r.Bench, r.FixedWindows, r.PhaseWindows)
		}
	}
	n := float64(len(rows))
	rep.MeanFixedRelErr = sumFE / n
	rep.MeanPhaseRelErr = sumPE / n
	rep.MeanFixedRelCI = sumFC / n
	rep.MeanPhaseRelCI = sumPC / n
	pol := sample.DefaultPolicy()
	rep.DetailedRefsEach = uint64(rows[0].FixedWindows) * pol.DetailedRefs

	t.Logf("mean relative IPC error: fixed %.4f, phase %.4f", rep.MeanFixedRelErr, rep.MeanPhaseRelErr)
	t.Logf("mean relative CI half-width: fixed %.4f, phase %.4f", rep.MeanFixedRelCI, rep.MeanPhaseRelCI)

	if out := os.Getenv("TK_PHASE_BENCH_OUT"); out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", out)
	}

	if rep.MeanPhaseRelErr >= rep.MeanFixedRelErr {
		t.Errorf("phase mean relative IPC error %.4f not below fixed-period %.4f",
			rep.MeanPhaseRelErr, rep.MeanFixedRelErr)
	}
	if rep.MeanPhaseRelCI >= rep.MeanFixedRelCI {
		t.Errorf("phase mean relative CI %.4f not below fixed-period %.4f",
			rep.MeanPhaseRelCI, rep.MeanFixedRelCI)
	}
}

// comparePhaseFixed runs one benchmark under both schedules at the same
// budget and scores each against the golden exact IPC.
func comparePhaseFixed(bench string) (phaseBenchRow, error) {
	want, err := golden.Load(bench)
	if err != nil {
		return phaseBenchRow{}, err
	}
	fixed, err := sim.Run(context.Background(), sim.Spec{Workload: workload.MustProfile(bench), Opts: sampledOptions()})
	if err != nil {
		return phaseBenchRow{}, err
	}
	phase, err := sim.Run(context.Background(), sim.Spec{Workload: workload.MustProfile(bench), Opts: phaseOptions()})
	if err != nil {
		return phaseBenchRow{}, err
	}
	fe, pe := fixed.Estimate, phase.Estimate
	exact := want.CPU.IPC
	return phaseBenchRow{
		Bench:        bench,
		ExactIPC:     exact,
		FixedIPC:     fe.IPC.Mean,
		PhaseIPC:     pe.IPC.Mean,
		FixedRelErr:  math.Abs(fe.IPC.Mean-exact) / exact,
		PhaseRelErr:  math.Abs(pe.IPC.Mean-exact) / exact,
		FixedRelCI:   fe.IPC.RelCI(),
		PhaseRelCI:   pe.IPC.RelCI(),
		FixedWindows: fe.Windows,
		PhaseWindows: pe.Windows,
		PhaseK:       pe.Phase.K,
	}, nil
}

// TestPhaseSampledMatchesGoldenCorpus regression-guards the seeded
// clustering pipeline: recomputing the phase corpus must reproduce
// testdata/golden/phase_sampled.json byte-for-byte.
func TestPhaseSampledMatchesGoldenCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-scale phase runs in -short mode")
	}
	want, err := golden.LoadPhase()
	if err != nil {
		t.Fatalf("loading phase corpus: %v (generate with `go run ./cmd/tkgold -update`)", err)
	}
	if len(want) != len(golden.PhaseBenches) {
		t.Fatalf("corpus has %d entries, want %d", len(want), len(golden.PhaseBenches))
	}
	opt := golden.PhaseOptions()
	for i, bench := range golden.PhaseBenches {
		bench, i := bench, i
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			got, err := golden.ComputePhase(bench, opt)
			if err != nil {
				t.Fatal(err)
			}
			if d := golden.PhaseDiff(got, want[i]); d != "" {
				t.Errorf("phase estimate drifted: %s", d)
			}
		})
	}
}

// TestPhaseDeterminism: repeat phase runs must be byte-identical — the
// whole pipeline (projection, clustering, planning, measurement) is seeded
// and free of map-order or math/rand nondeterminism.
func TestPhaseDeterminism(t *testing.T) {
	opt := phaseOptions()
	opt.WarmupRefs = 20_000
	opt.MeasureRefs = 150_000
	opt.Sampling.PhaseIntervals = 32 // 150k/64 default intervals could not hold a window
	a := sim.MustRun(workload.MustProfile("twolf"), opt)
	b := sim.MustRun(workload.MustProfile("twolf"), opt)
	if a.CPU != b.CPU {
		t.Fatalf("pooled CPU results differ: %+v vs %+v", a.CPU, b.CPU)
	}
	aj, _ := json.Marshal(a.Estimate)
	bj, _ := json.Marshal(b.Estimate)
	if string(aj) != string(bj) {
		t.Fatalf("estimates differ:\n%s\n%s", aj, bj)
	}
	if a.Estimate.Windows == 0 {
		t.Fatal("no windows")
	}
	if a.Estimate.Phase == nil {
		t.Fatal("no phase summary")
	}
}

// TestPhaseSeedChangesSchedule: a different PhaseSeed may legitimately
// pick different representatives; at minimum the policy marshals the seed
// so the runs get distinct cache identities.
func TestPhaseSeedDistinctKeys(t *testing.T) {
	a := phaseOptions()
	b := phaseOptions()
	b.Sampling.PhaseSeed = 2
	if simcache.Key("gcc", a) == simcache.Key("gcc", b) {
		t.Error("different phase seeds share a cache key")
	}
}

// TestPhasePolicyCacheKeys pins result-cache identity across all three
// schedules: exact, fixed-period, target-CI, segmented, and phase
// configurations must all key differently, and — critically — the legacy
// configurations must keep the exact keys they had before the phase fields
// existed (all phase fields are omitempty, so a zero-phase policy's JSON
// is byte-identical to its pre-phase form).
func TestPhasePolicyCacheKeys(t *testing.T) {
	exact := golden.CorpusOptions()

	fixed := golden.CorpusOptions()
	fixed.Sampling = sample.DefaultPolicy()

	targetCI := golden.CorpusOptions()
	targetCI.Sampling = sample.DefaultPolicy()
	targetCI.Sampling.TargetRelCI = 0.02

	segmented := golden.CorpusOptions()
	segmented.Sampling = sample.DefaultPolicy()
	segmented.Sampling.SegmentWindows = 4

	phase := phaseOptions()

	keys := map[string]string{
		"exact":     simcache.Key("gcc", exact),
		"fixed":     simcache.Key("gcc", fixed),
		"target-ci": simcache.Key("gcc", targetCI),
		"segmented": simcache.Key("gcc", segmented),
		"phase":     simcache.Key("gcc", phase),
	}
	seen := map[string]string{}
	for name, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Errorf("%s and %s share cache key %s", name, prev, k)
		}
		seen[k] = name
	}

	// The pre-phase keys, pinned as constants: recorded from this tree
	// immediately before the phase fields were added to sample.Policy. A
	// change here means every result cached by an earlier build is
	// orphaned — that must never happen as a side effect.
	legacy := map[string]string{
		"exact":     "fb191cb9ba46e990362562340c130b93ee35230876217162eceaba463efb8eea",
		"fixed":     "2e96fb9a6ac2684f1cbb41085a6f5138f17528d9540efa0ac0a013cdf9e62bb8",
		"target-ci": "d25ce030edab46f3f2af3e9ab29ae61134fef5a29b6ba0eaefa124965566f1c8",
		"segmented": "d8d42f101fefc1f7791c725a1e6f4260a69d36c14af7a4e1ee0a7ef457378c6e",
	}
	for name, want := range legacy {
		if got := keys[name]; got != want {
			t.Errorf("%s cache key changed: %s, want pre-phase %s", name, got, want)
		}
	}
}

// TestPhaseRejectsUncopyableStream: the profiling pass walks a copy of
// the stream, so an explicit stream that cannot be copied, such as a
// trace file reader, is rejected before the run reads it.
func TestPhaseRejectsUncopyableStream(t *testing.T) {
	opt := phaseOptions()
	opt.WarmupRefs = 1_000
	opt.MeasureRefs = 70_000
	checkRejectedUnread(t, opt)
}
