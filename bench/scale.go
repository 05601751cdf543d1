package main

import (
	"timekeeping/internal/sample"
	"timekeeping/internal/sim"
)

// scale fixes the size of everything the benchmark runs. The harness has
// no flag for it: the parent and the change always run the same work. The
// tests use a tiny scale of their own.
type scale struct {
	// benches is the benchmark subset every workload and probe uses.
	benches []string

	// warmup and measure size each simulation-workload run, and policy
	// is the sampled workload's base sampling policy.
	warmup, measure uint64
	policy          sample.Policy
	// reps, when > 0, replaces the repetitions derived from -seconds.
	reps int

	// reqWarmup and reqRefs size each serving request; keys is how many
	// populated requests the disk, hit and proxied classes cycle through.
	reqWarmup, reqRefs uint64
	keys               int
	// Each serving round sends coldPerRound new keys, one disk pass over
	// the keys, hitsPerRound hits and proxiedPerRound proxied requests.
	coldPerRound, hitsPerRound, proxiedPerRound int
	// rounds, when > 0, replaces the round count derived from -seconds.
	rounds int

	// probeWarmup and probeMeasure size the layer probe's simulations;
	// probeCalls is how many calls each outside-timed service probe makes.
	probeWarmup, probeMeasure uint64
	probeCalls                int
}

// defaultScale is the benchmark's scale: the paper-reproduction subset at
// the simulator's default run length, and tkserve's small interactive
// request size.
func defaultScale() scale {
	def := sim.Default()
	return scale{
		benches:   []string{"eon", "twolf", "vpr", "ammp", "swim", "mcf", "facerec", "gcc"},
		warmup:    def.WarmupRefs,
		measure:   def.MeasureRefs,
		policy:    *sample.DefaultPolicy(),
		reqWarmup: 5_000,
		reqRefs:   20_000,
		keys:      64,
		// A round's client time splits roughly evenly between the cold,
		// hit and proxied requests, with the disk pass a tenth of it.
		coldPerRound:    8,
		hitsPerRound:    448,
		proxiedPerRound: 192,
		probeWarmup:     50_000,
		probeMeasure:    200_000,
		probeCalls:      1000,
	}
}

// options returns the default configuration at the given run length and
// seed: the base every workload and probe configuration mutates.
func options(warmup, measure, seed uint64) sim.Options {
	o := sim.Default()
	o.WarmupRefs, o.MeasureRefs, o.Seed = warmup, measure, seed
	return o
}
