// Command tksim runs a single simulation configuration and prints IPC,
// miss and timekeeping statistics — the equivalent of one SimpleScalar
// invocation in the paper's methodology.
//
// Usage:
//
//	tksim -bench mcf
//	tksim -bench twolf -victim decay
//	tksim -bench ammp -prefetch timekeeping
//	tksim -bench gcc -sample     # statistical sampling with 95% CIs
//	tksim -list                  # print the benchmark suite
//
// With -cache-dir, results persist to a durable content-addressed store:
// repeating an identical workload configuration answers from disk
// instead of re-simulating (trace-driven runs always simulate).
//
// Generation-event tracing (see internal/events and EXPERIMENTS.md):
//
//	tksim -bench twolf -events-out trace.json -events-sets 0:3
//	tksim -bench mcf -events-out ev.jsonl -events-kinds fill,evict
//
// -events-out writes a Perfetto-compatible Chrome trace (open with
// ui.perfetto.dev); a .jsonl suffix selects the compact JSONL stream
// instead. -events-sets and -events-kinds filter capture at emit time;
// -events-cap bounds the ring (oldest events are dropped on overflow).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"timekeeping/internal/caps"
	"timekeeping/internal/events"
	"timekeeping/internal/sample"
	"timekeeping/internal/sim"
	"timekeeping/internal/simcache"
	"timekeeping/internal/store"
	"timekeeping/internal/trace"
	"timekeeping/internal/workload"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list benchmark names and exit")
		bench    = flag.String("bench", "gcc", "benchmark name (see workload.Names)")
		traceIn  = flag.String("trace", "", "drive the simulation from a saved trace file instead of a workload")
		victim   = flag.String("victim", "", "victim cache filter: none | collins | decay | adaptive | reload")
		pf       = flag.String("prefetch", "", "prefetcher: timekeeping | dbcp | nextline")
		perfect  = flag.Bool("perfect", false, "eliminate all non-cold L1 misses (Figure 1 limit)")
		warmup   = flag.Uint64("warmup", 0, "warm-up references (0 = default)")
		refs     = flag.Uint64("refs", 0, "measured references (0 = default)")
		seed     = flag.Uint64("seed", 0, "workload seed (0 = default)")
		track    = flag.Bool("track", true, "attach the timekeeping tracker")
		dropSWPF = flag.Bool("drop-swprefetch", false, "ignore compiler software prefetches")
		smp      = flag.Bool("sample", false, "statistical sampling: alternate functional warming with detailed windows, report 95% CIs")
		smpCI    = flag.Float64("sample-ci", 0, "with -sample: keep sampling until the IPC estimate's relative CI half-width is at most this (e.g. 0.02)")
		smpPar   = flag.Int("sample-parallel", 0, "with -sample: worker pool size for the segment-parallel schedule (0 = sequential classic schedule)")
		smpSeg   = flag.Int("sample-segments", 0, "with -sample: windows per independently warmed segment (0 = 4 when -sample-parallel is set)")
		smpPhase = flag.Bool("sample-phase", false, "phase-aware sampling: cluster profiling-interval signatures and spend detailed windows on cluster representatives")
		phaseIv  = flag.Int("phase-intervals", 0, "with -sample-phase: profiling intervals over the measure span (0 = 64)")
		phaseK   = flag.Int("phase-k", 0, "with -sample-phase: fixed cluster count (0 = BIC model selection)")
		phaseSd  = flag.Uint64("phase-seed", 0, "with -sample-phase: clustering/projection seed (0 = 1)")
		evOut    = flag.String("events-out", "", "capture generation events and write a Perfetto trace (or JSONL with a .jsonl suffix) to this file")
		evSets   = flag.String("events-sets", "", "restrict event capture to these L1 sets, e.g. 0:3 or 5,9,12 (default: all)")
		evKinds  = flag.String("events-kinds", "", "restrict event capture to these kinds, e.g. fill,hit,evict (default: all)")
		evCap    = flag.Int("events-cap", 0, "event ring capacity; oldest events drop on overflow (0 = 65536)")
		cacheDir = flag.String("cache-dir", "", "durable result cache directory: identical workload runs are answered from disk across invocations")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file (pprof format)")
		memProf  = flag.String("memprofile", "", "write an allocation profile to this file (pprof format)")
		version  = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()

	if *version {
		b := caps.Build()
		ver, rev := b.Version, b.Revision
		if ver == "" {
			ver = "devel"
		}
		if rev == "" {
			rev = "unknown"
		}
		if b.Modified {
			rev += "-dirty"
		}
		fmt.Printf("tksim %s (revision %s, %s)\n", ver, rev, b.GoVersion)
		return
	}

	if *list {
		for _, name := range caps.Local().Benches {
			fmt.Println(name)
		}
		return
	}

	opt := sim.Default()
	vf, err := sim.ParseVictimFilter(*victim)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opt.VictimFilter = vf
	pref, err := sim.ParsePrefetcher(*pf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opt.Prefetcher = pref
	opt.Hier.PerfectL1 = *perfect
	opt.Track = *track
	opt.DropSWPrefetch = *dropSWPF
	if *warmup > 0 {
		opt.WarmupRefs = *warmup
	}
	if *refs > 0 {
		opt.MeasureRefs = *refs
	}
	if *seed > 0 {
		opt.Seed = *seed
	}
	pol, err := samplePolicyFromFlags(*smp, *smpCI, *smpPar, *smpSeg, *smpPhase, *phaseIv, *phaseK, *phaseSd)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opt.Sampling = pol

	var sink *events.Sink
	if *evOut != "" {
		kinds, kerr := events.ParseKinds(*evKinds)
		if kerr != nil {
			fmt.Fprintln(os.Stderr, kerr)
			os.Exit(2)
		}
		sets, serr := events.ParseSets(*evSets, opt.Hier.L1.Sets())
		if serr != nil {
			fmt.Fprintln(os.Stderr, serr)
			os.Exit(2)
		}
		sink = events.NewSink(events.Config{Cap: *evCap, Kinds: kinds, Sets: sets}, nil)
		opt.Events = sink
	}

	if *cpuProf != "" {
		f, perr := os.Create(*cpuProf)
		if perr != nil {
			fmt.Fprintln(os.Stderr, perr)
			os.Exit(1)
		}
		if perr := pprof.StartCPUProfile(f); perr != nil {
			fmt.Fprintln(os.Stderr, perr)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	var res sim.Result
	if *traceIn != "" {
		f, ferr := os.Open(*traceIn)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, ferr)
			os.Exit(1)
		}
		defer f.Close()
		rd, rerr := trace.NewReader(f)
		if rerr != nil {
			fmt.Fprintln(os.Stderr, rerr)
			os.Exit(1)
		}
		spec := sim.Spec{Name: *traceIn, Stream: rd, Opts: opt}
		if opt.Sampling != nil && (opt.Sampling.SegmentWindows > 0 || opt.Sampling.Schedule == sample.SchedulePhase) {
			// Segment workers (and the phase schedule's profiling pass)
			// replay copies of the stream, which a file reader cannot
			// give: load the trace once into a SliceStream, whose copies
			// share its reference slice.
			var refs []trace.Ref
			var r trace.Ref
			for rd.Next(&r) {
				refs = append(refs, r)
			}
			if rd.Err() != nil {
				fmt.Fprintln(os.Stderr, rd.Err())
				os.Exit(1)
			}
			spec.Stream = &trace.SliceStream{Refs: refs}
		}
		res, err = sim.Run(context.Background(), spec)
		if err == nil && rd.Err() != nil {
			err = rd.Err()
		}
	} else {
		spec, serr := workload.Profile(*bench)
		if serr != nil {
			fmt.Fprintln(os.Stderr, serr)
			fmt.Fprintf(os.Stderr, "known benchmarks: %v\n", workload.Names())
			os.Exit(2)
		}
		if *cacheDir != "" {
			st, oerr := store.Open(*cacheDir, store.Options{})
			if oerr != nil {
				fmt.Fprintln(os.Stderr, oerr)
				os.Exit(1)
			}
			defer st.Close()
			cache := simcache.New()
			cache.SetTier(st)
			var outcome simcache.Outcome
			res, outcome, err = cache.Do(context.Background(), simcache.Key(spec.Name, opt),
				func(ctx context.Context) (sim.Result, error) {
					return sim.Run(ctx, sim.Spec{Workload: spec, Opts: opt})
				})
			if outcome == simcache.Disk {
				fmt.Fprintf(os.Stderr, "tksim: result served from %s (no simulation ran", *cacheDir)
				if sink != nil {
					fmt.Fprint(os.Stderr, "; -events-out trace will be empty")
				}
				fmt.Fprintln(os.Stderr, ")")
			}
		} else {
			res, err = sim.Run(context.Background(), sim.Spec{Workload: spec, Opts: opt})
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if sink != nil {
		if werr := sink.WriteFile(*evOut); werr != nil {
			fmt.Fprintln(os.Stderr, werr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "events: %d captured (%d dropped) -> %s\n",
			sink.Len(), sink.Dropped(), *evOut)
	}

	fmt.Printf("bench        %s\n", res.Bench)
	if e := res.Estimate; e != nil {
		fmt.Printf("sampled      %d windows (detailed %d refs, functionally warmed %d)\n",
			e.Windows, e.DetailedRefs, e.WarmRefs)
		fmt.Printf("IPC          %.4f ± %.4f (95%% CI [%.4f, %.4f])\n",
			e.IPC.Mean, e.IPC.CIHigh-e.IPC.Mean, e.IPC.CILow, e.IPC.CIHigh)
		fmt.Printf("L1 miss rate %.4f%% ± %.4f%%\n",
			100*e.L1MissRate.Mean, 100*(e.L1MissRate.CIHigh-e.L1MissRate.Mean))
		fmt.Printf("L2 miss rate %.4f%% ± %.4f%%\n",
			100*e.L2MissRate.Mean, 100*(e.L2MissRate.CIHigh-e.L2MissRate.Mean))
		if e.Policy.TargetRelCI > 0 {
			fmt.Printf("target CI    ±%.1f%%: met=%v\n", 100*e.Policy.TargetRelCI, e.TargetMet)
		}
		if p := e.Phase; p != nil {
			fmt.Printf("phases       %d clusters over %d intervals (masses %v), %d representative windows\n",
				p.K, p.Intervals, p.Masses, p.RepWindows)
		}
		fmt.Println("-- pooled detailed-window counters --")
	}
	fmt.Printf("IPC          %.4f\n", res.CPU.IPC)
	fmt.Printf("instructions %d\n", res.CPU.Insts)
	fmt.Printf("cycles       %d\n", res.CPU.Cycles)
	fmt.Printf("refs         %d (loads %d, stores %d)\n", res.CPU.Refs, res.CPU.Loads, res.CPU.Stores)
	s := res.Hier
	fmt.Printf("L1 accesses  %d  hits %d  misses %d (%.2f%%)\n", s.Accesses, s.Hits, s.Misses, 100*s.MissRate())
	fmt.Printf("miss classes cold %d  conflict %d  capacity %d\n", s.ColdMisses, s.ConflMiss, s.CapMiss)
	fmt.Printf("L2           hits %d  misses %d\n", s.L2Hits, s.L2Misses)
	if res.Victim != nil {
		v := res.Victim
		fmt.Printf("victim cache offered %d admitted %d hits %d (fill %.4f/cycle)\n",
			v.Offered, v.Admitted, v.Hits, res.VictimFillPerCycle())
	}
	if res.PFTimeliness != nil {
		fmt.Printf("prefetch     issued %d  addr accuracy %.3f  coverage %.3f\n",
			res.PFIssued, res.PFAddrAcc, res.PFCoverage)
	}
	if res.Tracker != nil {
		m := res.Tracker
		fmt.Printf("generations  %d  mean live %.0f  mean dead %.0f cycles\n",
			m.Generations, m.Live.Mean(), m.Dead.Mean())
		fmt.Printf("zero-live    accuracy %.3f coverage %.3f\n", m.ZeroLive.Accuracy(), m.ZeroLive.Coverage())
		fmt.Printf("live-pred    accuracy %.3f coverage %.3f\n", m.LivePred.Accuracy(), m.LivePred.PredictionRate())
	}

	if *memProf != "" {
		f, perr := os.Create(*memProf)
		if perr != nil {
			fmt.Fprintln(os.Stderr, perr)
			os.Exit(1)
		}
		runtime.GC() // settle allocation stats before the snapshot
		if perr := pprof.WriteHeapProfile(f); perr != nil {
			fmt.Fprintln(os.Stderr, perr)
			os.Exit(1)
		}
		if cerr := f.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, cerr)
			os.Exit(1)
		}
	}
}

// samplePolicyFromFlags assembles the sampling policy from the -sample*
// flag values, or nil when none are set. Flag conflicts are reported here
// at parse time with messages naming the flags (not the policy fields), so
// the user sees "-sample-ci conflicts with -sample-segments" instead of a
// validation error from deep inside sample.Policy.
func samplePolicyFromFlags(smp bool, ci float64, par, seg int, phase bool, phaseIv, phaseK int, phaseSeed uint64) (*sample.Policy, error) {
	if !smp && ci == 0 && par == 0 && seg == 0 && !phase && phaseIv == 0 && phaseK == 0 && phaseSeed == 0 {
		return nil, nil
	}
	if ci > 0 && seg > 0 {
		return nil, fmt.Errorf("tksim: -sample-ci conflicts with -sample-segments (a CI-driven stop would depend on segment scheduling order); pick one")
	}
	if phase && ci > 0 {
		return nil, fmt.Errorf("tksim: -sample-phase conflicts with -sample-ci (the phase schedule fixes its window set before measuring); pick one")
	}
	if phase && (seg > 0 || par > 1) {
		return nil, fmt.Errorf("tksim: -sample-phase conflicts with -sample-segments/-sample-parallel (phase windows sit on cluster representatives, not a segmentable grid); pick one")
	}
	if !phase && (phaseIv != 0 || phaseK != 0 || phaseSeed != 0) {
		return nil, fmt.Errorf("tksim: -phase-intervals/-phase-k/-phase-seed need -sample-phase")
	}
	pol := sample.DefaultPolicy()
	pol.TargetRelCI = ci
	pol.SegmentWindows = seg
	pol.Parallelism = par
	if pol.Parallelism > 1 && pol.SegmentWindows == 0 {
		pol.SegmentWindows = 4
	}
	if phase {
		pol.Schedule = sample.SchedulePhase
		pol.PhaseIntervals = phaseIv
		pol.PhaseK = phaseK
		pol.PhaseSeed = phaseSeed
	}
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	return pol, nil
}
