package timekeeping

// One testing.B benchmark per paper table/figure (plus the ablations).
// Each benchmark regenerates its experiment end to end at a reduced
// simulation scale over a representative benchmark subset, so
// `go test -bench=.` exercises every reproduction path in minutes. Use
// cmd/tkexp for full-scale numbers.

import (
	"context"
	"testing"

	"timekeeping/internal/experiments"
	"timekeeping/internal/golden"
	"timekeeping/internal/sample"
	"timekeeping/internal/sim"
	"timekeeping/internal/simcache"
	"timekeeping/internal/workload"
)

// benchRunner returns a reduced-scale runner. Scale and subset are fixed
// so -benchtime comparisons are meaningful, and each runner gets a
// private result cache (not the process-wide simcache.Default) so every
// iteration simulates for real.
func benchRunner() *experiments.Runner {
	r := experiments.NewRunner()
	r.Opts.WarmupRefs = 20_000
	r.Opts.MeasureRefs = 80_000
	r.Benches = []string{"eon", "twolf", "vpr", "ammp", "swim", "mcf", "facerec", "gcc"}
	r.Cache = simcache.New()
	return r
}

// runExperiment drives one experiment per iteration with a fresh runner
// (no memoisation across iterations, so the work is real).
func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		tables := exp.Run(r)
		if len(tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
	}
}

func BenchmarkTable1Config(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFigure1 doubles as the benchmark smoke's correctness gate: every
// iteration checks that the limit-study runs actually simulated (non-zero
// TotalRefs for both configurations) and that the base-configuration stats
// still match the reduced-scale golden corpus (testdata/golden/
// bench_fig1.json, maintained by cmd/tkgold at exactly this runner's scale).
func BenchmarkFigure1(b *testing.B) {
	exp, err := experiments.ByID("fig1")
	if err != nil {
		b.Fatal(err)
	}
	stored, err := golden.BenchFile.Load(golden.Dir())
	if err != nil {
		b.Fatalf("%v (run `go run ./cmd/tkgold -update`)", err)
	}
	want := make(map[string]golden.Entry, len(stored))
	for _, e := range stored {
		want[e.Bench] = e
	}

	for i := 0; i < b.N; i++ {
		r := benchRunner()
		if tables := exp.Run(r); len(tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
		refs := r.Opts.WarmupRefs + r.Opts.MeasureRefs
		for _, bench := range r.Benches {
			for _, config := range []string{"base", "perfect"} {
				if res := r.Result(config, bench); res.TotalRefs != refs {
					b.Fatalf("%s/%s: TotalRefs = %d, want %d", config, bench, res.TotalRefs, refs)
				}
			}
			w, ok := want[bench]
			if !ok {
				b.Fatalf("%s: no golden entry in %s", bench, golden.BenchFile.Path(golden.Dir()))
			}
			got := golden.EntryOf(bench, golden.BenchScaleOptions(), r.Result("base", bench))
			if d := golden.Diff(got, w); d != "" {
				b.Fatalf("%s drifted from golden corpus: %s", bench, d)
			}
		}
	}
}

func BenchmarkFigure2(b *testing.B)  { runExperiment(b, "fig2") }
func BenchmarkFigure4(b *testing.B)  { runExperiment(b, "fig4") }
func BenchmarkFigure5(b *testing.B)  { runExperiment(b, "fig5") }
func BenchmarkFigure7(b *testing.B)  { runExperiment(b, "fig7") }
func BenchmarkFigure8(b *testing.B)  { runExperiment(b, "fig8") }
func BenchmarkFigure9(b *testing.B)  { runExperiment(b, "fig9") }
func BenchmarkFigure10(b *testing.B) { runExperiment(b, "fig10") }
func BenchmarkFigure11(b *testing.B) { runExperiment(b, "fig11") }
func BenchmarkFigure13(b *testing.B) { runExperiment(b, "fig13") }
func BenchmarkFigure14(b *testing.B) { runExperiment(b, "fig14") }
func BenchmarkFigure15(b *testing.B) { runExperiment(b, "fig15") }
func BenchmarkFigure16(b *testing.B) { runExperiment(b, "fig16") }
func BenchmarkFigure19(b *testing.B) { runExperiment(b, "fig19") }
func BenchmarkFigure20(b *testing.B) { runExperiment(b, "fig20") }
func BenchmarkFigure21(b *testing.B) { runExperiment(b, "fig21") }
func BenchmarkFigure22(b *testing.B) { runExperiment(b, "fig22") }

// BenchmarkSampledFigure1 is the sampled-mode smoke: the Figure 1 sweep at
// the full default scale (where sampling pays off), every run statistical.
// Each iteration checks the runs really sampled — estimates present with a
// plausible window count.
func BenchmarkSampledFigure1(b *testing.B) {
	exp, err := experiments.ByID("fig1")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		r.Opts = sim.Default() // full scale; sampling does the reduction
		r.Sampling = sample.DefaultPolicy()
		if tables := exp.Run(r); len(tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
		for _, bench := range r.Benches {
			res := r.Result("base", bench)
			if res.Estimate == nil || res.Estimate.Windows < 2 {
				b.Fatalf("%s: not sampled: %+v", bench, res.Estimate)
			}
			if res.TotalRefs == 0 {
				b.Fatalf("%s: no references simulated", bench)
			}
		}
	}
}

// BenchmarkPhaseSampledFigure1 is BenchmarkSampledFigure1 on the phase
// schedule: the same full-scale Figure 1 sweep, but detailed windows land
// on cluster representatives instead of a fixed period. Each iteration
// checks every run carried a phase summary with a sane clustering.
func BenchmarkPhaseSampledFigure1(b *testing.B) {
	exp, err := experiments.ByID("fig1")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		r.Opts = sim.Default() // full scale; sampling does the reduction
		pol := sample.DefaultPolicy()
		pol.Schedule = sample.SchedulePhase
		r.Sampling = pol
		if tables := exp.Run(r); len(tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
		for _, bench := range r.Benches {
			res := r.Result("base", bench)
			if res.Estimate == nil || res.Estimate.Windows < 2 {
				b.Fatalf("%s: not sampled: %+v", bench, res.Estimate)
			}
			p := res.Estimate.Phase
			if p == nil || p.K < 1 || p.RepWindows != res.Estimate.Windows {
				b.Fatalf("%s: no phase summary: %+v", bench, p)
			}
		}
	}
}

// BenchmarkSampledSpeedup is the tentpole performance demonstration: the
// same (bench, Options) pair exact vs sampled at the full default scale,
// both on the default engine. Compare the two sub-benchmarks' ns/op
// (TestSampledSpeedup enforces a CI-safe 2× floor on the same pair).
func BenchmarkSampledSpeedup(b *testing.B) {
	spec := workload.MustProfile("facerec")
	exact := golden.CorpusOptions()
	sampled := golden.CorpusOptions()
	sampled.Sampling = sample.DefaultPolicy()

	b.Run("Exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(context.Background(), sim.Spec{Workload: spec, Opts: exact}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Sampled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := sim.Run(context.Background(), sim.Spec{Workload: spec, Opts: sampled})
			if err != nil {
				b.Fatal(err)
			}
			if res.Estimate == nil {
				b.Fatal("no estimate")
			}
		}
	})
}

// sampledParallelOptions is the BenchmarkSampledParallel* shape: a
// segment-parallel sampled run whose 16 one-window segments are dominated
// by per-segment warming — the work profile the worker pool accelerates.
// Compare the sub-benchmarks' ns/op across worker counts.
func sampledParallelOptions(par int) sim.Options {
	opt := sim.Default()
	opt.Track = true
	opt.WarmupRefs = 60_000
	opt.MeasureRefs = 16 * 33_000
	pol := sample.DefaultPolicy()
	pol.SegmentWindows = 1
	pol.Parallelism = par
	opt.Sampling = pol
	return opt
}

func benchmarkSampledParallel(b *testing.B, par int) {
	spec := workload.MustProfile("mcf")
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(context.Background(), sim.Spec{Workload: spec, Opts: sampledParallelOptions(par)})
		if err != nil {
			b.Fatal(err)
		}
		if res.Estimate == nil || res.Estimate.Windows < 2 {
			b.Fatalf("not sampled: %+v", res.Estimate)
		}
	}
}

func BenchmarkSampledParallel1(b *testing.B) { benchmarkSampledParallel(b, 1) }
func BenchmarkSampledParallel2(b *testing.B) { benchmarkSampledParallel(b, 2) }
func BenchmarkSampledParallel8(b *testing.B) { benchmarkSampledParallel(b, 8) }

func BenchmarkAblateTableSize(b *testing.B)    { runExperiment(b, "ablate-table") }
func BenchmarkAblateIndexSplit(b *testing.B)   { runExperiment(b, "ablate-mn") }
func BenchmarkAblateVictimFilter(b *testing.B) { runExperiment(b, "ablate-victim") }
func BenchmarkAblateLiveScale(b *testing.B)    { runExperiment(b, "ablate-scale") }
func BenchmarkAblateLiveTimeRes(b *testing.B)  { runExperiment(b, "ablate-ltres") }
func BenchmarkAblateSWPrefetch(b *testing.B)   { runExperiment(b, "ablate-swpf") }

func BenchmarkExtDecay(b *testing.B)        { runExperiment(b, "ext-decay") }
func BenchmarkExtAdaptive(b *testing.B)     { runExperiment(b, "ext-adaptive") }
func BenchmarkExtNextLine(b *testing.B)     { runExperiment(b, "ext-nextline") }
func BenchmarkExtReloadFilter(b *testing.B) { runExperiment(b, "ext-reloadfilter") }
