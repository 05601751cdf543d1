package sample

import (
	"context"
	"math"
	"reflect"
	"testing"

	"timekeeping/internal/cpu"
	"timekeeping/internal/hier"
	"timekeeping/internal/trace"
)

func TestPhaseStratRatioSingleStratumMatchesRatio(t *testing.T) {
	var r Ratio
	var s StratRatio
	samples := [][2]float64{{120, 100}, {130, 110}, {90, 95}, {140, 120}}
	for _, p := range samples {
		r.Add(p[0], p[1])
		s.Add(0, 1, p[0], p[1])
	}
	a, b := r.Stat(), s.Stat()
	if math.Abs(a.Mean-b.Mean) > 1e-12 {
		t.Fatalf("means differ: %v vs %v", a.Mean, b.Mean)
	}
	if math.Abs((a.CIHigh-a.CILow)-(b.CIHigh-b.CILow)) > 1e-9 {
		t.Fatalf("CI widths differ: ratio %+v strat %+v", a, b)
	}
	if b.N != 4 || s.N() != 4 {
		t.Fatalf("N = %d/%d, want 4", b.N, s.N())
	}
}

func TestPhaseStratRatioMassWeighting(t *testing.T) {
	var s StratRatio
	// Stratum 0: 2 windows, each representing mass 3 → M = 6, ȳ = 2, x̄ = 1.
	s.Add(0, 3, 2, 1)
	s.Add(0, 3, 2, 1)
	// Stratum 1: 1 window of mass 1 → M = 1, ȳ = 10, x̄ = 1.
	s.Add(1, 1, 10, 1)
	st := s.Stat()
	want := (6.0*2 + 1.0*10) / (6.0 + 1.0)
	if math.Abs(st.Mean-want) > 1e-12 {
		t.Fatalf("mean %v, want %v", st.Mean, want)
	}
	// Stratum 0's windows are identical and stratum 1 is a singleton: no
	// within-stratum variance anywhere → degenerate CI at the mean.
	if st.CILow != st.Mean || st.CIHigh != st.Mean {
		t.Fatalf("CI [%v, %v] not degenerate at mean %v", st.CILow, st.CIHigh, st.Mean)
	}
}

func TestPhaseStratRatioStratificationShrinksCI(t *testing.T) {
	// Two internally constant phases at different IPC levels: the plain
	// ratio estimator charges the between-phase spread to its CI, the
	// stratified one carries it in the weights.
	var r Ratio
	var s StratRatio
	for i := 0; i < 4; i++ {
		r.Add(200, 100)
		s.Add(0, 1, 200, 100)
		r.Add(50, 100)
		s.Add(1, 1, 50, 100)
	}
	plain, strat := r.Stat(), s.Stat()
	if math.Abs(plain.Mean-strat.Mean) > 1e-12 {
		t.Fatalf("equal-mass means differ: %v vs %v", plain.Mean, strat.Mean)
	}
	if pw, sw := plain.CIHigh-plain.CILow, strat.CIHigh-strat.CILow; sw >= pw {
		t.Fatalf("stratified CI width %v not below plain %v", sw, pw)
	}
}

func TestPhaseStratRatioEmpty(t *testing.T) {
	var s StratRatio
	if st := s.Stat(); st.N != 0 || st.Mean != 0 {
		t.Fatalf("empty StratRatio stat = %+v", st)
	}
}

// phaseStream is an infinite two-phase stream: a pure function of the
// global reference index, so independent instances at any offset replay
// the same sequence. Even ivLen-sized intervals walk a small hot pool,
// odd intervals a large cold pool — distinct memory behaviour per phase.
type phaseStream struct {
	i     uint64
	ivLen uint64
}

func (s *phaseStream) Next(r *trace.Ref) bool {
	hot := (s.i/s.ivLen)%2 == 0
	// Address by within-interval index so every interval of a pool walks
	// identical regions — two crisp signature groups.
	addr := (s.i % s.ivLen % 64) * 32
	pc := uint32(1)
	if !hot {
		addr = 1<<28 + (s.i%s.ivLen)*512
		pc = 2
	}
	*r = trace.Ref{Addr: addr, PC: pc, Gap: 3, Kind: trace.Load}
	s.i++
	return true
}

func phaseRig(ivLen uint64) Config {
	h := hier.New(hier.DefaultConfig())
	return Config{
		Machine: Reference{CPU: cpu.New(cpu.DefaultConfig(), h), Hier: h},
		Stream:  &phaseStream{ivLen: ivLen},
		Policy: Policy{
			DetailedRefs: 256, WarmRefs: 1024, DetailedWarmRefs: 64,
			Schedule: SchedulePhase, PhaseIntervals: 16,
		},
		WarmupRefs:  2048,
		MeasureRefs: 16 * (256 + 1024 + 64),
		SegmentStream: func(offset uint64) (trace.Stream, error) {
			return &phaseStream{i: offset, ivLen: ivLen}, nil
		},
	}
}

func TestPhaseEngineSchedule(t *testing.T) {
	// Profiling intervals are MeasureRefs/16 = 1344 refs; align the
	// stream's phase alternation to them so clustering sees clean phases.
	cfg := phaseRig(1344)
	out, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := out.Estimate
	if e.Phase == nil {
		t.Fatal("phase run has no PhaseSummary")
	}
	if e.Phase.Intervals != 16 || e.Phase.IntervalRefs != 1344 {
		t.Fatalf("summary %+v, want 16 intervals of 1344 refs", e.Phase)
	}
	// Profiling walks warm-up plus all 16 intervals.
	if want := uint64(2048 + 16*1344); e.Phase.ProfiledRefs != want {
		t.Fatalf("profiled refs = %d, want %d", e.Phase.ProfiledRefs, want)
	}
	if e.Phase.K != 2 {
		t.Fatalf("clustered K = %d, want 2 (hot/cold alternation)", e.Phase.K)
	}
	sum := 0
	for _, m := range e.Phase.Masses {
		sum += m
	}
	if sum != 16 {
		t.Fatalf("cluster masses %v do not cover 16 intervals", e.Phase.Masses)
	}
	// Budget = MeasureRefs/period = 16 windows over 16 intervals: every
	// interval is measured.
	if e.Windows != 16 || e.Phase.RepWindows != 16 {
		t.Fatalf("windows = %d / rep %d, want 16", e.Windows, e.Phase.RepWindows)
	}
	if e.IPC.Mean <= 0 || e.IPC.N != 16 {
		t.Fatalf("IPC stat = %+v", e.IPC)
	}
	if e.IPC.CILow > e.IPC.Mean || e.IPC.CIHigh < e.IPC.Mean {
		t.Fatalf("IPC CI does not bracket mean: %+v", e.IPC)
	}
	if e.L1MissRate.Mean < 0 || e.L1MissRate.Mean > 1 {
		t.Fatalf("L1 miss rate = %+v", e.L1MissRate)
	}
	// TotalRefs covers the measurement timeline only; the profiling walk
	// is accounted separately in PhaseSummary.
	if out.TotalRefs < 2048+15*1344 {
		t.Fatalf("TotalRefs = %d implausibly small", out.TotalRefs)
	}
}

func TestPhaseEngineBudgetBelowIntervals(t *testing.T) {
	cfg := phaseRig(1344)
	cfg.Policy.MaxWindows = 4
	out, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := out.Estimate
	if e.Windows != 4 {
		t.Fatalf("windows = %d, want MaxWindows 4", e.Windows)
	}
	if e.Phase.K != 2 {
		t.Fatalf("K = %d, want 2", e.Phase.K)
	}
}

func TestPhaseEngineDeterministic(t *testing.T) {
	run := func() Outcome {
		out, err := Run(context.Background(), phaseRig(1344))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeat phase runs differ:\n%+v\n%+v", a, b)
	}
}

func TestPhaseEngineRequiresSegmentStream(t *testing.T) {
	cfg := phaseRig(1344)
	cfg.SegmentStream = nil
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("phase run without SegmentStream accepted")
	}
}

func TestPhaseEngineIntervalTooSmall(t *testing.T) {
	cfg := phaseRig(1344)
	cfg.Policy.PhaseIntervals = 16384 // ivLen ~1 ref < window
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("interval smaller than a detailed window accepted")
	}
}

func TestPhasePolicyValidate(t *testing.T) {
	base := *DefaultPolicy()
	ok := base
	ok.Schedule = SchedulePhase
	ok.PhaseIntervals = 128
	ok.PhaseK = 4
	ok.PhaseSeed = 7
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid phase policy rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*Policy)
	}{
		{"unknown schedule", func(p *Policy) { p.Schedule = "bbv" }},
		{"phase knobs without schedule", func(p *Policy) { p.PhaseIntervals = 64 }},
		{"seed without schedule", func(p *Policy) { p.PhaseSeed = 3 }},
		{"intervals of one", func(p *Policy) { p.Schedule = SchedulePhase; p.PhaseIntervals = 1 }},
		{"intervals above cap", func(p *Policy) { p.Schedule = SchedulePhase; p.PhaseIntervals = MaxPhaseIntervals + 1 }},
		{"k above cap", func(p *Policy) { p.Schedule = SchedulePhase; p.PhaseK = MaxPhaseK + 1 }},
		{"k above intervals", func(p *Policy) { p.Schedule = SchedulePhase; p.PhaseIntervals = 4; p.PhaseK = 8 }},
		{"phase with target CI", func(p *Policy) { p.Schedule = SchedulePhase; p.TargetRelCI = 0.02 }},
		{"phase with segments", func(p *Policy) { p.Schedule = SchedulePhase; p.SegmentWindows = 4 }},
	}
	for _, tc := range cases {
		p := base
		tc.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestPhasePolicyDefaults(t *testing.T) {
	p := Policy{DetailedRefs: 2048, WarmRefs: 30208, Schedule: SchedulePhase}
	d := p.withDefaults()
	if d.PhaseIntervals != DefaultPhaseIntervals || d.PhaseSeed != 1 {
		t.Fatalf("phase defaults not applied: %+v", d)
	}
	// Legacy policies must stay untouched — their JSON (and simcache key)
	// depends on the phase fields remaining zero.
	l := Policy{DetailedRefs: 2048, WarmRefs: 30208}.withDefaults()
	if l.Schedule != "" || l.PhaseIntervals != 0 || l.PhaseK != 0 || l.PhaseSeed != 0 {
		t.Fatalf("legacy policy gained phase defaults: %+v", l)
	}
}
