package golden

import (
	"context"

	"timekeeping/internal/sim"
	"timekeeping/internal/workload"
)

// This file maintains mechanisms.json — the mechanism slice of the corpus.
// The per-benchmark entries pin only the tracked base configuration, and
// the two engines share one implementation of every mechanism, so without
// this file nothing committed would notice a prefetcher or victim-cache
// change that moved a number. Each entry holds the full sim.Result of an
// exact run with one mechanism attached, at the benchmark layer probe's
// scale.

// MechPoint is one (benchmark, configuration) run a result-list corpus
// (mechanisms.json, sampled.json) records, with the options it runs
// under.
type MechPoint struct {
	Bench  string
	Config string
	Opts   sim.Options
}

// mechConfigs are the mechanism configurations, in corpus order. Each
// runs on its benches, or on every PhaseBench when benches is nil.
var mechConfigs = []struct {
	name    string
	benches []string
	apply   func(*sim.Options)
}{
	{"timekeeping", nil, func(o *sim.Options) { o.Prefetcher = sim.PrefetchTK }},
	{"dbcp", nil, func(o *sim.Options) { o.Prefetcher = sim.PrefetchDBCP }},
	{"nextline", nil, func(o *sim.Options) { o.Prefetcher = sim.PrefetchNextLine }},
	{"victim-decay", nil, func(o *sim.Options) { o.VictimFilter = sim.VictimDecay }},
	// DBCP stores the predicted block's set beside its tag, so a 2-way
	// L1 (one set bit fewer) pins the table's set handling too, on two
	// benches that issue DBCP prefetches at this scale.
	{"dbcp-2way", []string{"gcc", "ammp"}, func(o *sim.Options) {
		o.Prefetcher = sim.PrefetchDBCP
		o.Hier.L1.Ways = 2
	}},
}

// MechPoints lists the corpus's points in file order. Each runs the
// paper's baseline at 50K warm-up plus 200K measured references with one
// mechanism attached.
func MechPoints() []MechPoint {
	var ps []MechPoint
	for _, c := range mechConfigs {
		benches := c.benches
		if benches == nil {
			benches = PhaseBenches
		}
		for _, b := range benches {
			opt := sim.Default()
			opt.WarmupRefs = 50_000
			opt.MeasureRefs = 200_000
			c.apply(&opt)
			ps = append(ps, MechPoint{Bench: b, Config: c.name, Opts: opt})
		}
	}
	return ps
}

// MechEntry is one point's golden record: the run's full result.
type MechEntry struct {
	Bench  string     `json:"bench"`
	Config string     `json:"config"`
	Result sim.Result `json:"result"`
}

// ComputeMech runs one point and assembles its entry. The lockstep audit
// summary (present when TK_AUDIT forces auditing) is dropped: it records
// how the run was checked, not what it produced.
func ComputeMech(p MechPoint) (MechEntry, error) {
	res, err := sim.Run(context.Background(), sim.Spec{
		Workload: workload.MustProfile(p.Bench),
		Opts:     p.Opts,
	})
	if err != nil {
		return MechEntry{}, err
	}
	res.Audit = nil
	return MechEntry{Bench: p.Bench, Config: p.Config, Result: res}, nil
}

// MechFile is the mechanism corpus.
const MechFile ListFile[MechEntry] = "mechanisms.json"
