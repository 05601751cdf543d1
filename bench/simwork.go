package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"timekeeping/internal/golden"
	"timekeeping/internal/sample"
	"timekeeping/internal/sim"
	"timekeeping/internal/workload"
)

// simConfig is one configuration a simulation workload runs every bench
// under; apply mutates the default options.
type simConfig struct {
	name  string
	apply func(o *sim.Options, s scale)
}

// simWorkload drives sim.Run directly, one run at a time, over every
// (bench, config) point, repeating the whole pass.
type simWorkload struct {
	id      string
	configs []simConfig
	// sweepsPerMinute is how many sweeps over every point a run makes per
	// minute of -seconds, at least 2: about as many as fit on a 2-vCPU
	// machine, so a run lasts roughly -seconds.
	sweepsPerMinute int
	// corpus, when non-nil, loads the committed results this workload's
	// points are checked against.
	corpus func(benches []string) (corpusCheck, error)
}

// corpusCheck compares one point's result with its committed entry; it
// returns "" when they match or the point has no entry at this seed and
// scale.
type corpusCheck func(bench, config string, o sim.Options, res sim.Result) string

func tracked(o *sim.Options) { o.Track = true }

// sampled returns a config running tracked under the scale's sampling
// policy, adjusted by tune.
func sampled(name string, tune func(*sample.Policy)) simConfig {
	return simConfig{name, func(o *sim.Options, s scale) {
		tracked(o)
		pol := s.policy
		tune(&pol)
		o.Sampling = &pol
	}}
}

var (
	// exactWorkload is the Figure-1 sweep: the paper's reproduction path
	// and the only traffic of the batched engine.
	exactWorkload = &simWorkload{
		id: "exact",
		configs: []simConfig{
			{"base", func(o *sim.Options, _ scale) { tracked(o) }},
			{"perfect", func(o *sim.Options, _ scale) { o.Hier.PerfectL1 = true }},
		},
		sweepsPerMinute: 15,
		corpus:          exactCorpus,
	}
	// mechanismsWorkload runs the same hot loop through its attachment
	// points: the victim cache and both prefetchers.
	mechanismsWorkload = &simWorkload{
		id: "mechanisms",
		configs: []simConfig{
			{"vdecay", func(o *sim.Options, _ scale) { o.VictimFilter = sim.VictimDecay }},
			{"tk", func(o *sim.Options, _ scale) { o.Prefetcher = sim.PrefetchTK }},
			{"dbcp", func(o *sim.Options, _ scale) { o.Prefetcher = sim.PrefetchDBCP }},
		},
		sweepsPerMinute: 6,
	}
	// sampledWorkload runs every sampling schedule: the reference loop,
	// functional warming, phase profiling and segment parallelism.
	sampledWorkload = &simWorkload{
		id: "sampled",
		configs: []simConfig{
			sampled("fixed", func(*sample.Policy) {}),
			sampled("phase", func(p *sample.Policy) { p.Schedule = sample.SchedulePhase }),
			sampled("segmented", func(p *sample.Policy) { p.SegmentWindows, p.Parallelism = 4, 2 }),
		},
		sweepsPerMinute: 6,
		corpus:          phaseCorpus,
	}
)

func (w *simWorkload) name() string { return w.id }

// point is one (bench, config) run.
type point struct {
	bench, config string
	spec          sim.Spec
}

// refs is how many trace references the run covers.
func (p point) refs() uint64 { return p.spec.Opts.WarmupRefs + p.spec.Opts.MeasureRefs }

type simSession struct {
	points []point
	reps   int
	check  corpusCheck
	cal    *calibrator
}

func (w *simWorkload) setup(ctx context.Context, e *env) (session, error) {
	s := &simSession{reps: e.scale.reps, cal: e.cal}
	if s.reps == 0 {
		s.reps = max(2, int(math.Round(float64(w.sweepsPerMinute*e.seconds)/60)))
	}
	for _, b := range e.scale.benches {
		wl, err := workload.Profile(b)
		if err != nil {
			return nil, err
		}
		for _, c := range w.configs {
			o := options(e.scale.warmup, e.scale.measure, e.seed)
			c.apply(&o, e.scale)
			s.points = append(s.points, point{bench: b, config: c.name, spec: sim.Spec{Workload: wl, Opts: o}})
		}
	}
	if w.corpus != nil {
		check, err := w.corpus(e.scale.benches)
		if err != nil {
			return nil, fmt.Errorf("loading the corpus: %w", err)
		}
		s.check = check
	}
	// Warm-up: every configuration once on the first bench at half the
	// measured length, so the timed runs start with the code paged in and
	// the heap grown. Each starts from a collected heap, as the timed runs
	// do, so the peak RSS does not hinge on where a collection fell here.
	for _, p := range s.points[:len(w.configs)] {
		runtime.GC()
		p.spec.Opts.MeasureRefs /= 2
		if _, err := sim.Run(ctx, p.spec); err != nil {
			return nil, fmt.Errorf("warm-up %s/%s: %w", p.bench, p.config, err)
		}
	}
	return s, nil
}

func (s *simSession) close() {}

// measure sweeps every point s.reps times, in order, so a slow stretch of
// the machine spreads over all points. Times are in reference seconds.
// The median sweep takes each point's median time: the throughput is the
// simulated trace references over it, and it is the latency p50, the wait
// a user of the workload sees. The p99 is the slowest sweep.
func (s *simSession) measure(ctx context.Context, parent *span) (*outcome, error) {
	out := &outcome{}
	walls := make([][]float64, len(s.points))
	sweeps := make([]float64, s.reps)
	blobs := make([][]byte, len(s.points))
	for rep := 0; rep < s.reps; rep++ {
		for i, p := range s.points {
			// Start every run from a collected heap, as a fresh process
			// would, so no run pays for its predecessor's garbage and the
			// peak RSS does not hinge on where a collection happened to fall.
			runtime.GC()
			s.cal.mark()
			sp := parent.child("sim.Run", "bench", p.bench, "config", p.config, "rep", fmt.Sprint(rep))
			t0 := time.Now()
			res, err := sim.Run(ctx, p.spec)
			d := time.Since(t0).Seconds()
			out.ops++
			if err != nil {
				sp.end("error", err.Error())
				out.fail("%s/%s: %v", p.bench, p.config, err)
				continue
			}
			sp.end(resultAttrs(res)...)
			d *= s.cal.factor()
			walls[i] = append(walls[i], d)
			sweeps[rep] += d
			// Every repetition must reproduce the first byte for byte.
			blob, err := json.Marshal(res)
			switch {
			case err != nil:
				out.fail("%s/%s: encoding the result: %v", p.bench, p.config, err)
			case blobs[i] == nil:
				blobs[i] = blob
				if s.check != nil {
					if diff := s.check(p.bench, p.config, p.spec.Opts, res); diff != "" {
						out.fail("%s/%s differs from the corpus: %s", p.bench, p.config, diff)
					}
				}
			case !bytes.Equal(blob, blobs[i]):
				out.fail("%s/%s rep %d: statistics differ from rep 0", p.bench, p.config, rep)
			}
		}
	}
	var sumWall, sumRefs float64
	for i, p := range s.points {
		if len(walls[i]) > 0 {
			sumWall += median(walls[i])
			sumRefs += float64(p.refs())
		}
	}
	out.wall = sumWall
	out.metrics = map[string]float64{"latency_p50_ms": 1000 * sumWall}
	out.layers = map[string]float64{
		"latency_p99_ms": 1000 * quantile(sweeps, 0.99),
		"throughput":     ratio(sumRefs, sumWall),
	}
	out.digest = digestOf(blobs)
	return out, nil
}

// resultAttrs are the counts a simulation span carries.
func resultAttrs(res sim.Result) []string {
	return []string{
		"total_refs", fmt.Sprint(res.TotalRefs),
		"cycles", fmt.Sprint(res.CPU.Cycles),
		"ipc", fmt.Sprint(res.CPU.IPC),
		"l1_misses", fmt.Sprint(res.Hier.Misses),
		"l2_misses", fmt.Sprint(res.Hier.L2Misses),
	}
}

// exactCorpus checks the base points against testdata/golden/<bench>.json.
func exactCorpus(benches []string) (corpusCheck, error) {
	want := map[string]golden.Entry{}
	for _, b := range benches {
		e, err := golden.Load(b)
		if err != nil {
			return nil, err
		}
		want[b] = e
	}
	return func(bench, config string, o sim.Options, res sim.Result) string {
		w, ok := want[bench]
		if config != "base" || !ok || !sameRun(w.Seed, w.WarmupRefs, w.MeasureRefs, o) {
			return ""
		}
		return golden.Diff(golden.EntryOf(bench, o, res), w)
	}, nil
}

// phaseCorpus checks the phase points against phase_sampled.json.
func phaseCorpus([]string) (corpusCheck, error) {
	entries, err := golden.LoadPhase()
	if err != nil {
		return nil, err
	}
	want := map[string]golden.PhaseEntry{}
	for _, e := range entries {
		want[e.Bench] = e
	}
	return func(bench, config string, o sim.Options, res sim.Result) string {
		w, ok := want[bench]
		if config != "phase" || !ok || !sameRun(w.Seed, w.WarmupRefs, w.MeasureRefs, o) {
			return ""
		}
		if res.Estimate == nil {
			return "no sampling estimate"
		}
		return golden.PhaseDiff(golden.PhaseEntry{
			Bench:       bench,
			WarmupRefs:  o.WarmupRefs,
			MeasureRefs: o.MeasureRefs,
			Seed:        o.Seed,
			TotalRefs:   res.TotalRefs,
			Estimate:    *res.Estimate,
			CPU:         res.CPU,
			Hier:        res.Hier,
		}, w)
	}, nil
}

// sameRun reports whether o runs at a corpus entry's seed and length.
func sameRun(seed, warmup, measure uint64, o sim.Options) bool {
	return seed == o.Seed && warmup == o.WarmupRefs && measure == o.MeasureRefs
}
