package golden

import (
	"context"
	"fmt"

	"timekeeping/internal/cpu"
	"timekeeping/internal/hier"
	"timekeeping/internal/sample"
	"timekeeping/internal/sim"
	"timekeeping/internal/workload"
)

// This file maintains phase_sampled.json — the phase-sampled slice of the
// corpus. Phase-aware sampling (internal/phase) is seeded end to end:
// signature projection, k-means initialisation, and window planning are
// pure functions of the policy, so the estimates below are byte-stable and
// any nondeterminism creeping into the pipeline (map iteration order,
// math/rand global state) fails the regression gate immediately.

// PhaseBenches is the representative subset enrolled in the phase-sampled
// corpus: the paper's headline benchmarks across the behaviour spectrum
// (pointer-chasing, cache-friendly, conflict-heavy, numeric).
var PhaseBenches = []string{"gcc", "mcf", "twolf", "ammp", "facerec"}

// PhaseOptions is the configuration the phase corpus is recorded under:
// CorpusOptions with the default sampling policy on the phase schedule
// (BIC cluster selection, default intervals and seed).
func PhaseOptions() sim.Options {
	opt := CorpusOptions()
	pol := sample.DefaultPolicy()
	pol.Schedule = sample.SchedulePhase
	opt.Sampling = pol
	return opt
}

// PhaseEntry is one benchmark's phase-sampled golden record: the full
// statistical estimate (policy echo, phase summary, per-stat CIs) plus the
// pooled detailed-window counters.
type PhaseEntry struct {
	Bench       string          `json:"bench"`
	WarmupRefs  uint64          `json:"warmup_refs"`
	MeasureRefs uint64          `json:"measure_refs"`
	Seed        uint64          `json:"seed"`
	TotalRefs   uint64          `json:"total_refs"`
	Estimate    sample.Estimate `json:"estimate"`
	CPU         cpu.Result      `json:"cpu"`
	Hier        hier.Stats      `json:"hier"`
}

// ComputePhase runs the benchmark under the phase-sampled configuration
// and assembles its entry.
func ComputePhase(bench string, opt sim.Options) (PhaseEntry, error) {
	res, err := sim.Run(context.Background(), sim.Spec{
		Workload: workload.MustProfile(bench),
		Opts:     opt,
	})
	if err != nil {
		return PhaseEntry{}, err
	}
	if res.Estimate == nil {
		return PhaseEntry{}, fmt.Errorf("golden: phase run of %s produced no estimate", bench)
	}
	return PhaseEntry{
		Bench:       bench,
		WarmupRefs:  opt.WarmupRefs,
		MeasureRefs: opt.MeasureRefs,
		Seed:        opt.Seed,
		TotalRefs:   res.TotalRefs,
		Estimate:    *res.Estimate,
		CPU:         res.CPU,
		Hier:        res.Hier,
	}, nil
}

// PhaseFile is the phase-sampled corpus.
const PhaseFile ListFile[PhaseEntry] = "phase_sampled.json"

// LoadPhase reads the phase-sampled corpus.
func LoadPhase() ([]PhaseEntry, error) { return PhaseFile.Load(Dir()) }

// PhaseDiff is Diff on phase entries.
func PhaseDiff(got, want PhaseEntry) string { return Diff(got, want) }
