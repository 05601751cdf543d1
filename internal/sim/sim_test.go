package sim

import (
	"bytes"
	"context"
	"testing"

	"timekeeping/internal/trace"
	"timekeeping/internal/workload"
)

// quick returns fast-running options for tests.
func quick() Options {
	o := Default()
	o.WarmupRefs = 20_000
	o.MeasureRefs = 60_000
	return o
}

func TestBaselineRunProducesIPC(t *testing.T) {
	res, err := Run(context.Background(), Spec{Workload: workload.MustProfile("eon"), Opts: quick()})
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.IPC <= 0 || res.CPU.Refs != 60_000 {
		t.Fatalf("result = %+v", res.CPU)
	}
	if res.Hier.Accesses != 60_000 {
		t.Fatalf("hier accesses = %d", res.Hier.Accesses)
	}
}

func TestDeterminism(t *testing.T) {
	a := MustRun(workload.MustProfile("gcc"), quick())
	b := MustRun(workload.MustProfile("gcc"), quick())
	if a.CPU != b.CPU {
		t.Fatalf("runs differ: %+v vs %+v", a.CPU, b.CPU)
	}
	if a.Hier != b.Hier {
		t.Fatalf("hier stats differ")
	}
}

func TestPerfectL1Improves(t *testing.T) {
	// ammp's footprint warms within the quick test window; mcf's 4 MB
	// chase needs the full-scale run to get past its cold misses.
	base := MustRun(workload.MustProfile("ammp"), quick())
	o := quick()
	o.Hier.PerfectL1 = true
	perfect := MustRun(workload.MustProfile("ammp"), o)
	if perfect.CPU.IPC <= base.CPU.IPC {
		t.Fatalf("perfect L1 did not help ammp: %v vs %v", perfect.CPU.IPC, base.CPU.IPC)
	}
	if Improvement(perfect, base) < 50 {
		t.Fatalf("ammp potential improvement only %.1f%%", Improvement(perfect, base))
	}
}

func TestVictimCacheConfigs(t *testing.T) {
	spec := workload.MustProfile("twolf")
	base := MustRun(spec, quick())
	for _, f := range []VictimFilter{VictimNone, VictimCollins, VictimDecay} {
		o := quick()
		o.VictimFilter = f
		res := MustRun(spec, o)
		if res.Victim == nil {
			t.Fatalf("%s: no victim stats", f)
		}
		if res.CPU.IPC < base.CPU.IPC*0.9 {
			t.Fatalf("%s: victim cache tanked IPC: %v vs %v", f, res.CPU.IPC, base.CPU.IPC)
		}
	}
}

func TestDecayFilterCutsTraffic(t *testing.T) {
	spec := workload.MustProfile("swim") // capacity-dominated: long dead times
	unfiltered := quick()
	unfiltered.VictimFilter = VictimNone
	a := MustRun(spec, unfiltered)
	filtered := quick()
	filtered.VictimFilter = VictimDecay
	b := MustRun(spec, filtered)
	if a.Victim.Admitted == 0 {
		t.Fatal("unfiltered victim cache admitted nothing")
	}
	reduction := 1 - float64(b.Victim.Admitted)/float64(a.Victim.Admitted)
	if reduction < 0.5 {
		t.Fatalf("decay filter cut traffic only %.0f%%", reduction*100)
	}
}

func TestPrefetchersRun(t *testing.T) {
	spec := workload.MustProfile("ammp")
	base := MustRun(spec, quick())

	tko := quick()
	tko.Prefetcher = PrefetchTK
	tk := MustRun(spec, tko)
	if tk.PFTimeliness == nil || tk.PFIssued == 0 {
		t.Fatal("timekeeping prefetcher produced no stats")
	}
	if tk.CPU.IPC <= base.CPU.IPC {
		t.Fatalf("timekeeping prefetch did not help ammp: %v vs %v", tk.CPU.IPC, base.CPU.IPC)
	}

	do := quick()
	do.Prefetcher = PrefetchDBCP
	db := MustRun(spec, do)
	if db.PFTimeliness == nil {
		t.Fatal("DBCP produced no stats")
	}
	if db.CPU.IPC <= base.CPU.IPC {
		t.Fatalf("DBCP did not help ammp: %v vs %v", db.CPU.IPC, base.CPU.IPC)
	}
}

func TestTrackerAttached(t *testing.T) {
	o := quick()
	o.Track = true
	res := MustRun(workload.MustProfile("swim"), o)
	if res.Tracker == nil || res.Tracker.Generations == 0 {
		t.Fatal("tracker collected nothing")
	}
	if res.Tracker.Live.Total() == 0 || res.Tracker.Dead.Total() == 0 {
		t.Fatal("metric histograms empty")
	}
}

func TestDropSWPrefetch(t *testing.T) {
	o := quick()
	o.DropSWPrefetch = true
	res := MustRun(workload.MustProfile("swim"), o)
	if res.CPU.IPC <= 0 {
		t.Fatal("run failed")
	}
}

func TestVictimFillPerCycle(t *testing.T) {
	o := quick()
	o.VictimFilter = VictimNone
	res := MustRun(workload.MustProfile("twolf"), o)
	if res.VictimFillPerCycle() <= 0 {
		t.Fatal("fill rate should be positive for conflict-heavy twolf")
	}
	var empty Result
	if empty.VictimFillPerCycle() != 0 {
		t.Fatal("empty result fill rate")
	}
}

func TestRunErrors(t *testing.T) {
	o := quick()
	o.MeasureRefs = 0
	if _, err := Run(context.Background(), Spec{Workload: workload.MustProfile("eon"), Opts: o}); err == nil {
		t.Fatal("zero measure refs accepted")
	}
	o = quick()
	o.VictimFilter = "bogus"
	if _, err := Run(context.Background(), Spec{Workload: workload.MustProfile("eon"), Opts: o}); err == nil {
		t.Fatal("bogus filter accepted")
	}
	o = quick()
	o.Prefetcher = "bogus"
	if _, err := Run(context.Background(), Spec{Workload: workload.MustProfile("eon"), Opts: o}); err == nil {
		t.Fatal("bogus prefetcher accepted")
	}
	if _, err := Run(context.Background(), Spec{Workload: workload.Spec{}, Opts: quick()}); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestImprovement(t *testing.T) {
	base := Result{}
	base.CPU.IPC = 2
	better := Result{}
	better.CPU.IPC = 3
	if got := Improvement(better, base); got != 50 {
		t.Fatalf("improvement = %v", got)
	}
	if Improvement(better, Result{}) != 0 {
		t.Fatal("zero-base improvement")
	}
}

func TestNextLinePrefetcherOnStream(t *testing.T) {
	// Next-line shines on a pure sequential stream with exposed latency.
	spec := workload.Spec{Name: "stream", Seed: 4, Components: []workload.ComponentSpec{
		{Kind: workload.PatSeq, Weight: 1, Base: 0x1000800, Bytes: 256 * workload.KB,
			Stride: 8, GapMean: 2, DepFrac: 0.3},
	}}
	base := MustRun(spec, quick())
	o := quick()
	o.Prefetcher = PrefetchNextLine
	nl := MustRun(spec, o)
	if nl.PFIssued == 0 {
		t.Fatal("next-line issued nothing")
	}
	if nl.CPU.IPC <= base.CPU.IPC {
		t.Fatalf("next-line did not help a stream: %v vs %v", nl.CPU.IPC, base.CPU.IPC)
	}
}

func TestNextLineUselessOnChase(t *testing.T) {
	// A pointer chase has no sequential structure: next-line must not
	// achieve anything close to the timekeeping prefetcher.
	spec := workload.MustProfile("ammp")
	base := MustRun(spec, quick())
	no := quick()
	no.Prefetcher = PrefetchNextLine
	nl := MustRun(spec, no)
	to := quick()
	to.Prefetcher = PrefetchTK
	tk := MustRun(spec, to)
	if Improvement(nl, base) > Improvement(tk, base)/2 {
		t.Fatalf("next-line %.1f%% vs timekeeping %.1f%% on a chase",
			Improvement(nl, base), Improvement(tk, base))
	}
}

func TestAdaptiveVictimFilter(t *testing.T) {
	spec := workload.MustProfile("twolf")
	base := MustRun(spec, quick())
	o := quick()
	o.VictimFilter = VictimAdaptive
	res := MustRun(spec, o)
	if res.Victim == nil || res.Victim.Admitted == 0 {
		t.Fatal("adaptive filter admitted nothing")
	}
	if res.CPU.IPC < base.CPU.IPC {
		t.Fatalf("adaptive victim cache hurt twolf: %v vs %v", res.CPU.IPC, base.CPU.IPC)
	}
}

func TestTraceRoundTripMatchesDirectRun(t *testing.T) {
	// Saving a workload to the binary trace format and replaying it must
	// produce bit-identical simulation results.
	spec := workload.MustProfile("ammp")
	direct, err := Run(context.Background(), Spec{Workload: spec, Opts: quick()})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := spec.Stream(quick().Seed)
	var r trace.Ref
	for i := uint64(0); i < quick().WarmupRefs+quick().MeasureRefs; i++ {
		if !s.Next(&r) {
			t.Fatal("stream ended")
		}
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	rd, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Run(context.Background(), Spec{Name: "replay", Stream: rd, Opts: quick()})
	if err != nil {
		t.Fatal(err)
	}
	if rd.Err() != nil {
		t.Fatal(rd.Err())
	}
	if direct.CPU != replayed.CPU || direct.Hier != replayed.Hier {
		t.Fatalf("trace replay diverged:\n direct %+v\n replay %+v", direct.CPU, replayed.CPU)
	}
}

func TestSeedStability(t *testing.T) {
	// Different seeds produce different streams but the same qualitative
	// behaviour: IPC within a modest band, miss class unchanged.
	var ipcs []float64
	for seed := uint64(1); seed <= 3; seed++ {
		o := quick()
		o.Seed = seed
		res := MustRun(workload.MustProfile("twolf"), o)
		ipcs = append(ipcs, res.CPU.IPC)
		if res.Hier.ConflMiss <= res.Hier.CapMiss {
			t.Errorf("seed %d flipped twolf's miss class", seed)
		}
	}
	lo, hi := ipcs[0], ipcs[0]
	for _, v := range ipcs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi > lo*1.25 {
		t.Errorf("IPC unstable across seeds: %v", ipcs)
	}
}
