package golden

import "timekeeping/internal/sample"

// This file maintains sampled.json — the periodic-schedule slice of the
// corpus. phase_sampled.json pins the phase schedule; these entries pin
// the fixed-period, target-CI and segmented schedules the same way, with
// the full sim.Result of each run (estimate, pooled window counters and
// the tracker metrics recorded inside the windows).

// sampledConfigs are the periodic schedules, in corpus order, each a
// tuning of the engine gate's 512/2048/128 policy.
var sampledConfigs = []struct {
	name string
	tune func(*sample.Policy)
}{
	{"fixed", func(*sample.Policy) {}},
	// At this scale gcc never reaches a 5% IPC interval, so the file
	// holds runs that stop early and one that exhausts its window cap.
	{"target-ci", func(p *sample.Policy) { p.TargetRelCI, p.MinWindows = 0.05, 8 }},
	{"segmented", func(p *sample.Policy) { p.SegmentWindows, p.Parallelism = 4, 2 }},
}

// SampledPoints lists the corpus's points in file order: every PhaseBench
// under each periodic schedule, on the tracked baseline at 50K warm-up
// plus 200K measured references (74 fixed-period windows).
func SampledPoints() []MechPoint {
	var ps []MechPoint
	for _, c := range sampledConfigs {
		for _, b := range PhaseBenches {
			opt := CorpusOptions()
			opt.WarmupRefs = 50_000
			opt.MeasureRefs = 200_000
			pol := sample.Policy{DetailedRefs: 512, WarmRefs: 2048, DetailedWarmRefs: 128}
			c.tune(&pol)
			opt.Sampling = &pol
			ps = append(ps, MechPoint{Bench: b, Config: c.name, Opts: opt})
		}
	}
	return ps
}

// SampledFile is the periodic-schedule corpus; ComputeMech computes its
// entries.
const SampledFile ListFile[MechEntry] = "sampled.json"
