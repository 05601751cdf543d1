// Command tkexp regenerates the paper's tables and figures.
//
// Usage:
//
//	tkexp [flags] all            # every experiment, in paper order
//	tkexp [flags] fig8 fig13     # specific experiments
//	tkexp -list                  # list experiment IDs and benchmarks
//
// While experiments run, a live progress line on stderr tracks simulated
// references and throughput across the sweep (disable with -progress=false).
//
// Flags scale the simulations (-warmup, -refs) and restrict the benchmark
// set (-benches gcc,mcf,ammp). -sample trades exactness for speed: every
// run uses statistical sampling (internal/sample) and the sweep resolves
// through cache keys distinct from exact runs. -cache-dir persists run
// results to a durable store, so re-running an experiment (or sharing the
// directory between tkexp and tkserve) skips already-computed points.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"timekeeping/internal/caps"
	"timekeeping/internal/events"
	"timekeeping/internal/experiments"
	"timekeeping/internal/obs"
	"timekeeping/internal/sample"
	"timekeeping/internal/simcache"
	"timekeeping/internal/store"
	"timekeeping/internal/workload"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		warmup   = flag.Uint64("warmup", 0, "warm-up references per run (0 = default)")
		refs     = flag.Uint64("refs", 0, "measured references per run (0 = default)")
		benches  = flag.String("benches", "", "comma-separated benchmark subset (default: all 26)")
		seed     = flag.Uint64("seed", 0, "workload seed (0 = default)")
		csv      = flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
		progress = flag.Bool("progress", true, "print a live sweep progress line on stderr")
		smp      = flag.Bool("sample", false, "run the sweep in statistical sampling mode (faster, estimates with CIs)")
		smpCI    = flag.Float64("sample-ci", 0, "with -sample: per-run target relative CI half-width (e.g. 0.02)")
		smpPar   = flag.Int("sample-parallel", 0, "with -sample: worker pool size for the segment-parallel schedule (0 = sequential classic schedule)")
		smpSeg   = flag.Int("sample-segments", 0, "with -sample: windows per independently warmed segment (0 = 4 when -sample-parallel is set)")
		smpPhase = flag.Bool("sample-phase", false, "with -sample: phase-aware window placement on cluster representatives (internal/phase)")
		phaseIv  = flag.Int("phase-intervals", 0, "with -sample-phase: profiling intervals over the measure span (0 = 64)")
		phaseK   = flag.Int("phase-k", 0, "with -sample-phase: fixed cluster count (0 = BIC model selection)")
		evOut    = flag.String("events-out", "", "capture per-experiment-point run spans (and generation events) and write a Perfetto trace (or JSONL with a .jsonl suffix) to this file")
		evCap    = flag.Int("events-cap", 0, "with -events-out: event ring capacity (0 = 65536)")
		cacheDir = flag.String("cache-dir", "", "durable result cache directory: runs repeated across invocations are answered from disk")
	)
	flag.Parse()

	if *list {
		c := caps.Local()
		fmt.Println("experiments:")
		for _, e := range c.Experiments {
			fmt.Printf("  %-14s %s\n", e.ID, e.Title)
		}
		fmt.Println("benchmarks:")
		for _, name := range c.Benches {
			fmt.Printf("  %s\n", name)
		}
		return
	}

	ids := flag.Args()
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "usage: tkexp [flags] all | <experiment-id>... (see tkexp -list)")
		os.Exit(2)
	}

	runner := experiments.NewRunner()
	if *cacheDir != "" {
		st, err := store.Open(*cacheDir, store.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer st.Close()
		cache := simcache.New()
		cache.SetTier(st)
		runner.Cache = cache
	}
	if *progress {
		prog := new(obs.Progress)
		runner.Opts.Progress = prog
		stop := startProgressLine(prog)
		defer stop()
	}
	if *warmup > 0 {
		runner.Opts.WarmupRefs = *warmup
	}
	if *refs > 0 {
		runner.Opts.MeasureRefs = *refs
	}
	if *seed > 0 {
		runner.Opts.Seed = *seed
	}
	if *smp || *smpCI > 0 || *smpPar > 0 || *smpSeg > 0 || *smpPhase || *phaseIv > 0 || *phaseK > 0 {
		if *smpCI > 0 && *smpSeg > 0 {
			fmt.Fprintln(os.Stderr, "tkexp: -sample-ci conflicts with -sample-segments; pick one")
			os.Exit(2)
		}
		if *smpPhase && (*smpCI > 0 || *smpSeg > 0 || *smpPar > 1) {
			fmt.Fprintln(os.Stderr, "tkexp: -sample-phase conflicts with -sample-ci/-sample-segments/-sample-parallel; pick one")
			os.Exit(2)
		}
		pol := sample.DefaultPolicy()
		pol.TargetRelCI = *smpCI
		pol.SegmentWindows = *smpSeg
		pol.Parallelism = *smpPar
		if pol.Parallelism > 1 && pol.SegmentWindows == 0 {
			pol.SegmentWindows = 4
		}
		if *smpPhase {
			pol.Schedule = sample.SchedulePhase
			pol.PhaseIntervals = *phaseIv
			pol.PhaseK = *phaseK
		} else if *phaseIv > 0 || *phaseK > 0 {
			fmt.Fprintln(os.Stderr, "tkexp: -phase-intervals/-phase-k need -sample-phase")
			os.Exit(2)
		}
		if err := pol.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		runner.Sampling = pol
	}
	var sink *events.Sink
	if *evOut != "" {
		sink = events.NewSink(events.Config{Cap: *evCap}, nil)
		runner.Events = sink
	}
	if *benches != "" {
		var bs []string
		for _, b := range strings.Split(*benches, ",") {
			b = strings.TrimSpace(b)
			if _, err := workload.Profile(b); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			bs = append(bs, b)
		}
		runner.Benches = bs
	}

	var todo []experiments.Experiment
	switch {
	case len(ids) == 1 && ids[0] == "all":
		todo = experiments.All()
	case len(ids) == 1 && ids[0] == "ablations":
		todo = experiments.Ablations()
	default:
		for _, id := range ids {
			e, err := experiments.ByID(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			todo = append(todo, e)
		}
	}

	for _, e := range todo {
		start := time.Now()
		tables := e.Run(runner)
		for _, t := range tables {
			if *csv {
				fmt.Printf("# %s\n%s\n", t.Title, t.CSV())
			} else {
				fmt.Println(t.String())
			}
		}
		fmt.Printf("[%s completed in %.1fs]\n\n", e.ID, time.Since(start).Seconds())
	}

	if sink != nil {
		if err := sink.WriteFile(*evOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "events: %d spans, %d events (%d dropped) -> %s\n",
			len(sink.Trace().Spans()), sink.Len(), sink.Dropped(), *evOut)
	}
}

// startProgressLine repaints a live sweep-progress line on stderr every
// quarter second: references simulated so far out of the references the
// sweep has committed to, and the mean simulation throughput. Cached runs
// never register, so the line tracks real simulation work only. The
// returned stop function clears the line.
func startProgressLine(prog *obs.Progress) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s := prog.Snapshot()
				if s.Expected == 0 {
					continue
				}
				fmt.Fprintf(os.Stderr, "\r\x1b[K[sweep] %s refs %d/%d (%.1f Mref/s)",
					s.Phase, s.Done, s.Expected, s.RefsPerSec/1e6)
			case <-done:
				fmt.Fprint(os.Stderr, "\r\x1b[K")
				return
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}
