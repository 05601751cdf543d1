package prefetch

import (
	"testing"

	"timekeeping/internal/cache"
	"timekeeping/internal/core"
	"timekeeping/internal/cpu"
	"timekeeping/internal/hier"
	"timekeeping/internal/trace"
	"timekeeping/internal/workload"
)

// buildTK wires a default hierarchy with a timekeeping prefetcher.
func buildTK(t *testing.T) (*hier.Hierarchy, *Timekeeping) {
	t.Helper()
	h := hier.New(hier.DefaultConfig())
	pf := NewTimekeeping(DefaultConfig(), core.NewCorrTable(core.DefaultCorrConfig()), h.L1())
	h.AttachPrefetcher(pf)
	return h, pf
}

func buildDBCP(t *testing.T) (*hier.Hierarchy, *DBCP) {
	t.Helper()
	h := hier.New(hier.DefaultConfig())
	pf := NewDBCP(DefaultConfig(), 1<<14, h.L1())
	h.AttachPrefetcher(pf)
	return h, pf
}

// runStream drives refs through a CPU model on the hierarchy.
func runStream(h *hier.Hierarchy, s trace.Stream, refs uint64) cpu.Result {
	m := cpu.New(cpu.DefaultConfig(), h)
	return m.Run(s, refs)
}

// chaseSpec is a single-touch pointer chase whose per-frame miss history
// repeats exactly — the timekeeping prefetcher's best case (ammp).
func chaseSpec(nodes int) workload.Spec {
	return workload.Spec{Name: "chase", Seed: 7, Components: []workload.ComponentSpec{
		{Kind: workload.PatChase, Weight: 1, Base: 0x100000, Nodes: nodes, NodeSize: 32, GapMean: 1},
	}}
}

func TestTimekeepingLearnsChase(t *testing.T) {
	h, pf := buildTK(t)
	spec := chaseSpec(2048) // 64 KB: misses L1 every touch, fits L2
	res := runStream(h, spec.Stream(1), 100000)
	if res.Refs != 100000 {
		t.Fatalf("refs = %d", res.Refs)
	}
	if pf.Issued() == 0 {
		t.Fatal("no prefetches issued")
	}
	tally := pf.AddressTally()
	if tally.Accuracy() < 0.8 {
		t.Fatalf("address accuracy = %v, want > 0.8 on a fixed chase", tally.Accuracy())
	}
	if pf.Coverage() < 0.8 {
		t.Fatalf("coverage = %v", pf.Coverage())
	}
}

func TestTimekeepingImprovesMissRate(t *testing.T) {
	spec := chaseSpec(2048)

	base := hier.New(hier.DefaultConfig())
	runStream(base, spec.Stream(1), 60000)
	baseStats := base.Stats()

	h, _ := buildTK(t)
	runStream(h, spec.Stream(1), 60000)
	pfStats := h.Stats()

	if pfStats.Misses >= baseStats.Misses {
		t.Fatalf("prefetching did not cut misses: %d vs %d", pfStats.Misses, baseStats.Misses)
	}
	// The chase misses on every node without prefetch; with it the miss
	// count should collapse substantially.
	if float64(pfStats.Misses) > 0.7*float64(baseStats.Misses) {
		t.Fatalf("weak miss reduction: %d vs %d", pfStats.Misses, baseStats.Misses)
	}
}

func TestTimekeepingImprovesIPCOnChase(t *testing.T) {
	spec := chaseSpec(2048)
	base := hier.New(hier.DefaultConfig())
	resBase := runStream(base, spec.Stream(1), 60000)

	h, _ := buildTK(t)
	resPF := runStream(h, spec.Stream(1), 60000)

	if resPF.IPC <= resBase.IPC*1.2 {
		t.Fatalf("IPC %v vs base %v: expected >20%% gain on dependent chase", resPF.IPC, resBase.IPC)
	}
}

func TestTimekeepingTimelinessMostlyTimelyOnChase(t *testing.T) {
	h, pf := buildTK(t)
	spec := chaseSpec(2048)
	runStream(h, spec.Stream(1), 100000)
	tl := pf.Timeliness()
	total := tl.CorrectTotal()
	if total == 0 {
		t.Fatal("no classified prefetches")
	}
	if tl.Frac(true, Timely) < 0.5 {
		t.Fatalf("timely fraction = %v (correct=%+v)", tl.Frac(true, Timely), tl.Correct)
	}
}

func TestTimekeepingUnpredictableWorkloadLowAccuracy(t *testing.T) {
	h, pf := buildTK(t)
	spec := workload.Spec{Name: "rand", Seed: 9, Components: []workload.ComponentSpec{
		{Kind: workload.PatRand, Weight: 1, Base: 0, Bytes: 512 * workload.KB, GapMean: 2},
	}}
	runStream(h, spec.Stream(1), 60000)
	if acc := pf.AddressTally().Accuracy(); acc > 0.3 {
		t.Fatalf("random workload address accuracy = %v, want low", acc)
	}
}

func TestDBCPLearnsChase(t *testing.T) {
	h, pf := buildDBCP(t)
	spec := chaseSpec(2048) // 64 KB: larger than L1, so blocks die each lap
	res := runStream(h, spec.Stream(1), 60000)
	if res.Refs != 60000 {
		t.Fatal("run failed")
	}
	if pf.Issued() == 0 {
		t.Fatal("DBCP issued nothing")
	}
	tl := pf.Timeliness()
	if tl.CorrectTotal() == 0 {
		t.Fatalf("DBCP made no correct predictions: %+v", tl)
	}
}

func TestDBCPImprovesMissRateOnChase(t *testing.T) {
	spec := chaseSpec(2048)
	base := hier.New(hier.DefaultConfig())
	runStream(base, spec.Stream(1), 60000)
	h, _ := buildDBCP(t)
	runStream(h, spec.Stream(1), 60000)
	if h.Stats().Misses >= base.Stats().Misses {
		t.Fatalf("DBCP did not cut misses: %d vs %d", h.Stats().Misses, base.Stats().Misses)
	}
}

func TestSmallTableThrashesOnHugeFootprint(t *testing.T) {
	// mcf-style: footprint far beyond the 8 KB table's entry count. The
	// small table should show much lower address accuracy than on the
	// small chase.
	h, pf := buildTK(t)
	spec := chaseSpec(1 << 16) // 64K nodes >> 2048 entries
	runStream(h, spec.Stream(1), 120000)
	acc := pf.AddressTally()
	cov := pf.Coverage()
	if cov > 0.5 && acc.Accuracy() > 0.5 {
		t.Fatalf("8 KB table should thrash on 64K-node chase: acc=%v cov=%v", acc.Accuracy(), cov)
	}
}

func TestConfigPanics(t *testing.T) {
	h := hier.New(hier.DefaultConfig())
	for _, f := range []func(){
		func() {
			NewTimekeeping(Config{QueueEntries: 0, LiveTimeScale: 2}, core.NewCorrTable(core.DefaultCorrConfig()), h.L1())
		},
		func() {
			NewTimekeeping(Config{QueueEntries: 8, LiveTimeScale: 0}, core.NewCorrTable(core.DefaultCorrConfig()), h.L1())
		},
		func() { NewDBCP(DefaultConfig(), 3, h.L1()) },
		func() { NewDBCP(Config{QueueEntries: 0, LiveTimeScale: 1}, 16, h.L1()) },
		// 2^30 sets: one set bit more than a packed DBCP entry holds.
		func() { NewDBCP(DefaultConfig(), 16, wideL1{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// wideL1 is a geometry-only L1View with 2^30 direct-mapped sets.
type wideL1 struct{}

func (wideL1) Config() cache.Config {
	return cache.Config{Name: "wide", Bytes: 32 << 30, BlockBytes: 32, Ways: 1}
}
func (wideL1) FrameAddr(int) (uint64, bool) { return 0, false }
func (wideL1) Probe(uint64) (int, bool)     { return 0, false }

func TestResetStatsKeepsTraining(t *testing.T) {
	h, pf := buildTK(t)
	spec := chaseSpec(2048)
	s := spec.Stream(1)
	runStream(h, s, 30000)
	pf.ResetStats()
	if pf.Issued() != 0 || pf.AddressTally().Events != 0 {
		t.Fatal("stats not cleared")
	}
	// Continue the same stream on the same hierarchy: accuracy should be
	// high immediately because training survived.
	m := cpu.New(cpu.DefaultConfig(), h)
	m.Run(s, 30000)
	if pf.AddressTally().Accuracy() < 0.8 {
		t.Fatalf("training lost across stats reset: %v", pf.AddressTally().Accuracy())
	}
}

func TestDBCPSizeBytes(t *testing.T) {
	h := hier.New(hier.DefaultConfig())
	pf := NewDBCP(DefaultConfig(), DBCPEntries, h.L1())
	if pf.SizeBytes() != 2<<20 {
		t.Fatalf("size = %d, want 2MB", pf.SizeBytes())
	}
}
