package sample

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"timekeeping/internal/trace"
)

func TestSampleDefaultPolicyValid(t *testing.T) {
	if err := DefaultPolicy().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSamplePolicyValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Policy)
		ok   bool
	}{
		{"default", func(p *Policy) {}, true},
		{"zero detailed", func(p *Policy) { p.DetailedRefs = 0 }, false},
		{"zero warm", func(p *Policy) { p.WarmRefs = 0 }, false},
		{"negative cpi", func(p *Policy) { p.NominalCPI = -1 }, false},
		{"nan cpi", func(p *Policy) { p.NominalCPI = math.NaN() }, false},
		{"inf cpi", func(p *Policy) { p.NominalCPI = math.Inf(1) }, false},
		{"target ci 1", func(p *Policy) { p.TargetRelCI = 1 }, false},
		{"target ci negative", func(p *Policy) { p.TargetRelCI = -0.1 }, false},
		{"target ci ok", func(p *Policy) { p.TargetRelCI = 0.02 }, true},
		{"negative min windows", func(p *Policy) { p.MinWindows = -1 }, false},
		{"negative max windows", func(p *Policy) { p.MaxWindows = -1 }, false},
		{"explicit windows", func(p *Policy) { p.MinWindows = 4; p.MaxWindows = 16 }, true},
		{"negative segment windows", func(p *Policy) { p.SegmentWindows = -1 }, false},
		{"segment windows ok", func(p *Policy) { p.SegmentWindows = 8 }, true},
		{"max windows at cap", func(p *Policy) { p.MaxWindows = MaxWindowCount }, true},
		{"max windows above cap", func(p *Policy) { p.MaxWindows = MaxWindowCount + 1 }, false},
		{"segment windows at cap", func(p *Policy) { p.SegmentWindows = MaxWindowCount }, true},
		{"segment windows above cap", func(p *Policy) { p.SegmentWindows = MaxWindowCount + 1 }, false},
		{"negative parallelism", func(p *Policy) { p.Parallelism = -1 }, false},
		{"parallelism above cap", func(p *Policy) { p.Parallelism = MaxParallelism + 1 }, false},
		{"parallelism at cap", func(p *Policy) { p.SegmentWindows = 4; p.Parallelism = MaxParallelism }, true},
		{"parallel without segments", func(p *Policy) { p.Parallelism = 4 }, false},
		{"sequential without segments", func(p *Policy) { p.Parallelism = 1 }, true},
		{"target ci with segments", func(p *Policy) { p.TargetRelCI = 0.02; p.SegmentWindows = 4 }, false},
	}
	for _, tc := range cases {
		p := DefaultPolicy()
		tc.mut(p)
		err := p.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

// TestSamplePolicyValidateMessages pins the rejection messages: they name
// the offending field and the accepted range, so a CLI or API caller can
// fix the request without reading the source.
func TestSamplePolicyValidateMessages(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Policy)
		want string
	}{
		{"zero detailed", func(p *Policy) { p.DetailedRefs = 0 }, "sample: DetailedRefs must be > 0"},
		{"zero warm", func(p *Policy) { p.WarmRefs = 0 }, "sample: WarmRefs must be > 0 (use an exact run instead)"},
		{"negative min windows", func(p *Policy) { p.MinWindows = -2 }, "sample: MinWindows -2 < 0"},
		{"negative max windows", func(p *Policy) { p.MaxWindows = -3 }, "sample: MaxWindows -3 < 0"},
		{"negative segment windows", func(p *Policy) { p.SegmentWindows = -1 }, "sample: SegmentWindows -1 < 0"},
		{"max windows above cap", func(p *Policy) { p.MaxWindows = 1 << 40 }, "sample: MaxWindows 1099511627776 out of range [0, 65536]"},
		{"segment windows above cap", func(p *Policy) { p.SegmentWindows = 65537 }, "sample: SegmentWindows 65537 out of range [0, 65536]"},
		{"parallelism out of range", func(p *Policy) { p.Parallelism = 65 }, "sample: Parallelism 65 out of range [0, 64]"},
		{"negative parallelism", func(p *Policy) { p.Parallelism = -1 }, "sample: Parallelism -1 out of range [0, 64]"},
		{"parallel without segments", func(p *Policy) { p.Parallelism = 4 },
			"sample: Parallelism 4 needs SegmentWindows > 0 (the segment-parallel schedule)"},
		{"target ci with segments", func(p *Policy) { p.TargetRelCI = 0.02; p.SegmentWindows = 4 },
			"sample: TargetRelCI is incompatible with SegmentWindows (early stop would depend on scheduling order)"},
	}
	for _, tc := range cases {
		p := DefaultPolicy()
		tc.mut(p)
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: expected validation error", tc.name)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("%s: message %q, want %q", tc.name, err.Error(), tc.want)
		}
	}
}

// TestSamplePolicyJSONIdentity pins the caching contract: Parallelism is
// invisible to marshalling (parallel and sequential runs share cache
// keys) while SegmentWindows changes the encoding (the segmented schedule
// is a different experiment).
func TestSamplePolicyJSONIdentity(t *testing.T) {
	seq := DefaultPolicy()
	seq.SegmentWindows = 4
	par := DefaultPolicy()
	par.SegmentWindows = 4
	par.Parallelism = 8
	a, err := json.Marshal(seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(par)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("Parallelism leaked into the encoding:\n%s\nvs\n%s", a, b)
	}
	classic, err := json.Marshal(DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) == string(classic) {
		t.Error("SegmentWindows absent from the encoding: segmented and classic runs would share cache keys")
	}
}

// lcgStream is an infinite pseudo-random stream whose windows genuinely
// vary, so CLT intervals never collapse to a point the way the uniform
// strideStream's do.
type lcgStream struct{ state uint64 }

func (s *lcgStream) Next(r *trace.Ref) bool {
	s.state = s.state*6364136223846793005 + 1442695040888963407
	*r = trace.Ref{
		Addr: (s.state >> 33 % 8192) * 32,
		PC:   uint32(s.state % 31),
		Gap:  3,
		Kind: trace.Load,
	}
	return true
}

// TestSampleTargetCIRespectsMaxWindows: with an unreachable CI target the
// run stops at the explicit window cap and reports the target unmet.
func TestSampleTargetCIRespectsMaxWindows(t *testing.T) {
	cfg := testRig(&lcgStream{state: 1})
	cfg.Policy.TargetRelCI = 0.000001 // unreachable on a varying stream
	cfg.Policy.MinWindows = 2
	cfg.Policy.MaxWindows = 6
	out, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := out.Estimate
	if e.Windows != 6 {
		t.Fatalf("windows = %d, want the MaxWindows cap 6", e.Windows)
	}
	if e.TargetMet {
		t.Fatal("unreachable target reported met")
	}
}

// TestSampleTargetCIStopsBeforeMaxWindows: a loose target wins over a
// generous cap — early stop happens at MinWindows, not at the cap.
func TestSampleTargetCIStopsBeforeMaxWindows(t *testing.T) {
	cfg := testRig(&strideStream{blocks: 4096})
	cfg.Policy.TargetRelCI = 0.5
	cfg.Policy.MinWindows = 2
	cfg.Policy.MaxWindows = 12
	out, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := out.Estimate
	if !e.TargetMet {
		t.Fatalf("loose target unmet after %d windows", e.Windows)
	}
	if e.Windows >= 12 {
		t.Fatalf("windows = %d, want early stop before the cap", e.Windows)
	}
}

func TestSamplePolicyWithDefaults(t *testing.T) {
	p := Policy{DetailedRefs: 100, WarmRefs: 1000}.withDefaults()
	if p.NominalCPI != 1 {
		t.Errorf("NominalCPI = %v, want 1", p.NominalCPI)
	}
	if p.MinWindows != 8 {
		t.Errorf("MinWindows = %d, want 8", p.MinWindows)
	}
	q := Policy{DetailedRefs: 100, WarmRefs: 1000, NominalCPI: 2.5, MinWindows: 3}.withDefaults()
	if q.NominalCPI != 2.5 || q.MinWindows != 3 {
		t.Errorf("explicit fields overwritten: %+v", q)
	}
}

// TestSampleRatioMatchesNaive checks the running ratio accumulator against a
// direct evaluation of the ratio-estimator formulas.
func TestSampleRatioMatchesNaive(t *testing.T) {
	ys := []float64{120, 95, 140, 88, 131, 104}
	xs := []float64{200, 180, 230, 170, 225, 190}
	var r Ratio
	for i := range ys {
		r.Add(ys[i], xs[i])
	}

	var sy, sx float64
	for i := range ys {
		sy += ys[i]
		sx += xs[i]
	}
	R := sy / sx
	var s2d float64
	for i := range ys {
		d := ys[i] - R*xs[i]
		s2d += d * d
	}
	s2d /= float64(len(ys) - 1)
	xbar := sx / float64(len(ys))
	sd := math.Sqrt(s2d) / xbar
	half := z95 * sd / math.Sqrt(float64(len(ys)))

	st := r.Stat()
	if math.Abs(st.Mean-R) > 1e-12 {
		t.Errorf("mean = %v, want %v", st.Mean, R)
	}
	if math.Abs(st.StdDev-sd) > 1e-9 {
		t.Errorf("stddev = %v, want %v", st.StdDev, sd)
	}
	if math.Abs(st.CIHigh-(R+half)) > 1e-9 || math.Abs(st.CILow-(R-half)) > 1e-9 {
		t.Errorf("CI = [%v, %v], want [%v, %v]", st.CILow, st.CIHigh, R-half, R+half)
	}
}

// TestSampleRatioPoolsWindows verifies the estimator returns the ratio of sums,
// not the mean of per-window ratios (the bias the estimator exists to
// avoid when window denominators vary).
func TestSampleRatioPoolsWindows(t *testing.T) {
	var r Ratio
	// Two windows: one tiny with ratio 1.0, one huge with ratio 0.1. The
	// pooled ratio is dominated by the large window; a mean of ratios
	// would report 0.55.
	r.Add(1, 1)
	r.Add(100, 1000)
	got := r.Stat().Mean
	want := 101.0 / 1001.0
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("pooled ratio = %v, want %v", got, want)
	}
}

func TestSampleRatioConstantWindows(t *testing.T) {
	var r Ratio
	for i := 0; i < 5; i++ {
		r.Add(50, 100)
	}
	st := r.Stat()
	if st.Mean != 0.5 {
		t.Errorf("mean = %v, want 0.5", st.Mean)
	}
	// Identical windows: zero variance, the CI collapses to a point (the
	// s2d < 0 clamp guards exactly this cancellation).
	if st.CILow != st.CIHigh {
		t.Errorf("CI not a point: [%v, %v]", st.CILow, st.CIHigh)
	}
	if st.RelCI() != 0 {
		t.Errorf("RelCI = %v, want 0", st.RelCI())
	}
}

func TestSampleRatioDegenerate(t *testing.T) {
	var r Ratio
	if st := r.Stat(); st.Mean != 0 || st.N != 0 {
		t.Errorf("empty ratio stat = %+v", st)
	}
	r.Add(5, 10)
	st := r.Stat()
	if st.Mean != 0.5 || st.CILow != 0.5 || st.CIHigh != 0.5 || st.N != 1 {
		t.Errorf("single-window stat = %+v", st)
	}
}

func TestSampleStatRelCI(t *testing.T) {
	s := Stat{Mean: 2, CILow: 1.9, CIHigh: 2.1}
	if got := s.RelCI(); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("RelCI = %v, want 0.05", got)
	}
	zero := Stat{Mean: 0, CILow: -0.1, CIHigh: 0.1}
	if !math.IsInf(zero.RelCI(), 1) {
		t.Errorf("zero-mean RelCI = %v, want +Inf", zero.RelCI())
	}
	point := Stat{}
	if point.RelCI() != 0 {
		t.Errorf("zero point RelCI = %v, want 0", point.RelCI())
	}
}

func TestSampleStatContains(t *testing.T) {
	s := Stat{Mean: 1, CILow: 0.9, CIHigh: 1.1}
	for _, x := range []float64{0.9, 1.0, 1.1} {
		if !s.Contains(x) {
			t.Errorf("Contains(%v) = false", x)
		}
	}
	for _, x := range []float64{0.89, 1.11} {
		if s.Contains(x) {
			t.Errorf("Contains(%v) = true", x)
		}
	}
}
