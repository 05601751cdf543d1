package sim_test

// FuzzAuditedRun drives randomly shaped workloads and cache geometries
// through a fully audited simulation on the engine. The oracle replays
// every reference in lockstep, so any input the fuzzer finds where the
// engine's functional outcomes drift from a from-scratch LRU
// re-implementation — or where the timekeeping identities break — fails
// immediately with the divergent reference pinpointed. The same input
// then runs on the reference loop, whose results must match exactly. CI
// runs this as a short smoke (-fuzztime=30s); longer local runs just need
// `go test -fuzz`.

import (
	"context"
	"reflect"
	"testing"

	"timekeeping/internal/cache"
	"timekeeping/internal/core"
	"timekeeping/internal/cpu"
	"timekeeping/internal/engine"
	"timekeeping/internal/hier"
	"timekeeping/internal/sample"
	"timekeeping/internal/sim"
	"timekeeping/internal/trace"
	"timekeeping/internal/workload"
)

// fuzzL1Geometries are the L1 shapes the fuzzer cycles through. All keep
// BlockBytes <= the L2's 64B blocks, which the hierarchy requires.
var fuzzL1Geometries = []cache.Config{
	{Name: "L1D", Bytes: 32 << 10, BlockBytes: 32, Ways: 1},
	{Name: "L1D", Bytes: 8 << 10, BlockBytes: 32, Ways: 2},
	{Name: "L1D", Bytes: 16 << 10, BlockBytes: 64, Ways: 4},
	{Name: "L1D", Bytes: 4 << 10, BlockBytes: 32, Ways: 1},
	{Name: "L1D", Bytes: 64 << 10, BlockBytes: 64, Ways: 2},
}

// fuzzComponent maps two unconstrained fuzz words onto a valid workload
// component, so every generated Spec passes Validate by construction.
func fuzzComponent(kind, n uint64) workload.ComponentSpec {
	c := workload.ComponentSpec{
		Weight:  1 + int(kind%3),
		Base:    (kind % 4) << 24,
		GapMean: float64(n % 5),
		PCVar:   float64(kind%4) / 8,
		DepFrac: float64(n%4) / 8,
	}
	sz := 256 + n%(1<<16)
	switch kind % 5 {
	case 0:
		c.Kind = workload.PatSeq
		c.Bytes = sz
		c.Stride = 8 << (n % 3)
	case 1:
		c.Kind = workload.PatTriad
		c.Bytes = sz
	case 2:
		c.Kind = workload.PatRand
		c.Bytes = sz
		c.RunLen = int(n % 6)
	case 3:
		c.Kind = workload.PatChase
		c.Nodes = 2 + int(n%4096)
		c.NodeSize = 32 << (n % 2)
		c.Touches = 1 + int(n%3)
	case 4:
		c.Kind = workload.PatConflict
		c.Ways = 2 + int(n%3)
		c.Sets = 1 + int(n%64)
		c.PerSet = 2 + int(n%12)
		c.CacheBytes = 32 << 10
		c.WayPool = c.Ways + int(n%4) // >= Ways, so always valid
		c.RandomSets = n%2 == 1
	}
	return c
}

func FuzzAuditedRun(f *testing.F) {
	// One seed per mechanism bit-pattern plus a few geometry/pattern mixes.
	f.Add(uint64(1), uint64(0), uint64(0), uint64(512), uint64(3), uint64(100))
	f.Add(uint64(2), uint64(1), uint64(4), uint64(7), uint64(2), uint64(9000))
	f.Add(uint64(3), uint64(2), uint64(3), uint64(64), uint64(1), uint64(40))
	f.Add(uint64(7), uint64(9), uint64(2), uint64(31), uint64(4), uint64(5))
	f.Add(uint64(11), uint64(4), uint64(1), uint64(123), uint64(0), uint64(77))

	f.Fuzz(func(t *testing.T, seed, mech, kind1, n1, kind2, n2 uint64) {
		spec := workload.Spec{
			Name: "fuzz",
			Seed: seed,
			Components: []workload.ComponentSpec{
				fuzzComponent(kind1, n1),
				fuzzComponent(kind2, n2),
			},
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("fuzzComponent built an invalid spec: %v", err)
		}

		opt := sim.Default()
		opt.Hier.L1 = fuzzL1Geometries[mech%uint64(len(fuzzL1Geometries))]
		opt.WarmupRefs = 1_000
		opt.MeasureRefs = 8_000
		opt.Audit = true
		opt.Track = true
		switch (mech / 8) % 4 {
		case 1:
			opt.Prefetcher = sim.PrefetchTK
		case 2:
			opt.Prefetcher = sim.PrefetchNextLine
		case 3:
			opt.Prefetcher = sim.PrefetchDBCP
		}
		if mech&32 != 0 {
			opt.VictimFilter = sim.VictimDecay
		}
		if mech&64 != 0 {
			opt.DecayIntervals = []uint64{1 << 12, 1 << 14}
		}
		if mech&128 != 0 {
			opt.Hier.PerfectL1 = true
		}

		res, err := sim.Run(context.Background(), sim.Spec{Workload: spec, Opts: opt})
		if err != nil {
			t.Fatalf("audited run diverged: %v", err)
		}
		if res.Audit == nil {
			t.Fatal("audited run returned no audit summary")
		}
		if res.Audit.Refs != opt.WarmupRefs+opt.MeasureRefs {
			t.Fatalf("audited %d refs, want %d", res.Audit.Refs, opt.WarmupRefs+opt.MeasureRefs)
		}

		// Cross-check: the same input through the reference loop, which
		// never audits, must reproduce the audited engine run's results
		// exactly. Two oracles per input: the lockstep functional
		// re-implementation above, and the executable specification here.
		ref, err := sim.RunReference(context.Background(), sim.Spec{Workload: spec, Opts: opt})
		if err != nil {
			t.Fatalf("reference run failed: %v", err)
		}
		got := res
		got.Audit = nil
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("audited engine run diverges from the reference loop\nref:    %+v\nengine: %+v", ref, got)
		}
	})
}

// FuzzCloneDiverge hunts for inputs where a mid-run clone diverges from
// its original, or either engine from the other: it splits a randomly
// shaped workload at a random point, drives the reference
// hierarchy/CPU/tracker and the batched engine with its fast tracker
// through the identical prefix, clones both there, drives all four
// copies through the identical suffix — mixing the functional and
// detailed modes the sampler alternates, with the trackers recording
// throughout — and fails on any difference in CPU results, hierarchy
// stats, or tracker metrics. Seeds reuse the FuzzAuditedRun corpus shape.
func FuzzCloneDiverge(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint64(0), uint64(512), uint64(3), uint64(100))
	f.Add(uint64(2), uint64(1), uint64(4), uint64(7), uint64(2), uint64(9000))
	f.Add(uint64(3), uint64(2), uint64(3), uint64(64), uint64(1), uint64(40))
	f.Add(uint64(7), uint64(9), uint64(2), uint64(31), uint64(4), uint64(5))
	f.Add(uint64(11), uint64(4), uint64(1), uint64(123), uint64(0), uint64(77))

	f.Fuzz(func(t *testing.T, seed, mech, kind1, n1, kind2, n2 uint64) {
		spec := workload.Spec{
			Name: "fuzz",
			Seed: seed,
			Components: []workload.ComponentSpec{
				fuzzComponent(kind1, n1),
				fuzzComponent(kind2, n2),
			},
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("fuzzComponent built an invalid spec: %v", err)
		}

		prefix := 500 + n1%4000
		suffix := 500 + n2%4000
		refs := trace.Collect(spec.Stream(seed), int(prefix+suffix))

		hcfg := hier.DefaultConfig()
		hcfg.L1 = fuzzL1Geometries[mech%uint64(len(fuzzL1Geometries))]
		h := hier.New(hcfg)
		tr := core.NewTracker(h.L1().NumFrames())
		h.AddObserver(tr)
		m := cpu.New(cpu.DefaultConfig(), h)
		e := engine.New(engine.Config{Hier: hcfg, CPU: cpu.DefaultConfig()})
		ft := core.NewFastTracker(e.NumFrames())
		e.AttachTracker(ft)

		ctx := context.Background()
		// run drives one machine through n references, the first half
		// functionally when functional is set.
		run := func(mc sample.Machine, s trace.Stream, n uint64, functional bool) {
			t.Helper()
			if functional {
				if _, err := mc.RunFunctional(ctx, s, n/2, 1); err != nil {
					t.Fatal(err)
				}
				n -= n / 2
			}
			if _, err := mc.Run(ctx, s, n); err != nil {
				t.Fatal(err)
			}
		}
		// Split the prefix between the functional and detailed paths so
		// clones taken after either mode are covered.
		ref := sample.Reference{CPU: m, Hier: h}
		sRef := &trace.SliceStream{Refs: refs}
		sFast := &trace.SliceStream{Refs: refs}
		run(ref, sRef, prefix, mech&1 != 0)
		run(e, sFast, prefix, mech&1 != 0)
		consumed := m.Snapshot().Refs

		h2 := h.Clone()
		tr2 := tr.Clone()
		h2.AddObserver(tr2)
		ref2 := sample.Reference{CPU: m.Clone(h2), Hier: h2}
		e2 := e.Clone()
		ft2 := ft.Clone()
		e2.AttachTracker(ft2)

		run(ref, sRef, suffix, mech&2 != 0)
		run(ref2, &trace.SliceStream{Refs: refs[consumed:]}, suffix, mech&2 != 0)
		run(e, sFast, suffix, mech&2 != 0)
		run(e2, &trace.SliceStream{Refs: refs[consumed:]}, suffix, mech&2 != 0)

		machines := []struct {
			name string
			mc   sample.Machine
			tm   *core.Metrics
		}{
			{"reference clone", ref2, tr2.Metrics()},
			{"engine", e, ft.Metrics()},
			{"engine clone", e2, ft2.Metrics()},
		}
		for _, o := range machines {
			if a, b := ref.Snapshot(), o.mc.Snapshot(); a != b {
				t.Fatalf("%s: cpu snapshot diverged from the reference original:\nreference %+v\n%s %+v", o.name, a, o.name, b)
			}
			if a, b := ref.Stats(), o.mc.Stats(); a != b {
				t.Fatalf("%s: hier stats diverged from the reference original:\nreference %+v\n%s %+v", o.name, a, o.name, b)
			}
			if !reflect.DeepEqual(tr.Metrics(), o.tm) {
				t.Fatalf("%s: tracker metrics diverged from the reference original", o.name)
			}
		}
	})
}
