// Package sample implements SMARTS-style statistical sampling for
// simulation runs: the reference stream is executed as alternating
// *functional-warming* and *detailed-measurement* phases. During warming,
// references bypass the out-of-order core and the timing machinery
// entirely and only keep the memory system's functional state warm (cache
// and victim-buffer contents, per-frame timekeeping counters, predictor
// tables); during short detailed windows the full timing model runs and
// per-window IPC and miss rates are recorded. Whole-run estimates carry
// CLT-based 95% confidence intervals computed from the per-window
// variance.
//
// The package provides the sampling policy (the JSON-stable knob set that
// keys result caching), the estimator arithmetic, and the schedules that
// drive an assembled simulation through the Machine interface (see Run):
// the batched engine (internal/engine) on every production run, or the
// reference cpu.Model/hier.Hierarchy pair through Reference when tests
// compare the two.
package sample

import (
	"fmt"
	"math"

	"timekeeping/internal/obs"
)

// Process-cumulative sampling counters, rendered by tkserve's /metrics:
// how many detailed windows the process has measured and how the
// simulated references split between the functional and detailed paths.
var (
	ctrWindows      = obs.Default.Counter("sim_sample_windows_total")
	ctrWarmRefs     = obs.Default.Counter("sim_sample_warm_refs_total")
	ctrDetailedRefs = obs.Default.Counter("sim_sample_detailed_refs_total")
	// ctrSegments counts independently warmed segments executed by the
	// segment-parallel scheduler; ctrParallelWindows counts the subset of
	// measured windows executed by a pool with more than one worker.
	ctrSegments        = obs.Default.Counter("sim_sample_segments_total")
	ctrParallelWindows = obs.Default.Counter("sim_sample_parallel_windows_total")
)

// MaxParallelism bounds Policy.Parallelism: a ceiling on worker-pool size,
// far above any real core count, so a typo cannot spawn an absurd pool.
const MaxParallelism = 64

// SchedulePhase selects the phase-aware schedule: profile the trace into
// per-interval signatures, cluster them (internal/phase), and spend the
// detailed-window budget on cluster representatives weighted by cluster
// mass. The empty Schedule keeps the legacy periodic placement.
const SchedulePhase = "phase"

// Bounds and defaults for the phase-schedule knobs.
const (
	// MaxPhaseIntervals caps Policy.PhaseIntervals.
	MaxPhaseIntervals = 65536
	// MaxPhaseK caps Policy.PhaseK.
	MaxPhaseK = 64
	// DefaultPhaseIntervals is the profiling interval count used when
	// Policy.PhaseIntervals is zero.
	DefaultPhaseIntervals = 64
	// autoMaxPhaseK bounds BIC model selection when PhaseK is zero.
	autoMaxPhaseK = 8
)

// Policy configures one sampled run. The zero value is invalid; start
// from DefaultPolicy. Every field changes simulation behaviour and the
// struct marshals deterministically, so a Policy embedded in sim.Options
// gives sampled runs content-addressed cache keys distinct from exact
// runs (and from each other).
type Policy struct {
	// DetailedRefs is the length of each detailed measurement window, in
	// references.
	DetailedRefs uint64 `json:"detailed_refs"`
	// WarmRefs is the functional-warming span between windows, in
	// references.
	WarmRefs uint64 `json:"warm_refs"`
	// DetailedWarmRefs is a detailed-mode prefix run immediately before
	// each measurement window and excluded from its sample: it refills
	// the machine state functional warming cannot carry — OoO window
	// occupancy, MSHRs, bus and DRAM timing — so windows do not measure a
	// cold-start transient (0 = no prefix).
	DetailedWarmRefs uint64 `json:"detailed_warm_refs,omitempty"`
	// NominalCPI is the fixed rate the retire clock advances at during
	// functional warming, in cycles per instruction (0 = 1.0). It exists
	// because the timekeeping state being warmed — dead-time counters,
	// decay thresholds — is measured in cycles, so warming time should
	// pass at roughly the detailed execution rate.
	NominalCPI float64 `json:"nominal_cpi,omitempty"`
	// TargetRelCI, when > 0, switches from the fixed-period policy
	// ("cover the run's MeasureRefs budget") to the target-CI policy:
	// keep sampling windows until the IPC estimate's 95% CI half-width
	// divided by its mean is at most TargetRelCI (e.g. 0.02 = ±2%).
	TargetRelCI float64 `json:"target_rel_ci,omitempty"`
	// MinWindows is the minimum number of windows before TargetRelCI may
	// stop the run (0 = 8; the CLT needs a few samples).
	MinWindows int `json:"min_windows,omitempty"`
	// MaxWindows caps the number of detailed windows. 0 derives it from
	// the run's MeasureRefs budget: MeasureRefs/(DetailedRefs+WarmRefs)
	// windows for the fixed-period policy, 4x that for the target-CI
	// policy.
	MaxWindows int `json:"max_windows,omitempty"`
	// SegmentWindows, when > 0, selects the segment-parallel schedule: the
	// window sequence is partitioned into contiguous segments of this many
	// windows, and each segment re-derives the reference stream at its
	// boundary, functionally re-warms WarmupRefs from there, and replays
	// its windows on an isolated simulation instance. Windows keep the
	// exact stream positions of the classic single-timeline schedule, but
	// each segment's warm state is rebuilt locally instead of carried from
	// the run's start, so estimates differ slightly — the field marshals,
	// giving segmented runs their own result-cache identity. Independent
	// segments are what Parallelism exploits.
	SegmentWindows int `json:"segment_windows,omitempty"`
	// Parallelism bounds the worker pool that executes segments (0 or 1 =
	// sequential; > 1 requires SegmentWindows > 0). The segment schedule
	// and the pooling order are pure functions of the policy and budget,
	// never of worker count or completion order, so results are
	// bit-identical at every parallelism level — the field is therefore
	// excluded from marshalling and parallel and sequential runs share
	// result-cache keys.
	Parallelism int `json:"-"`

	// Schedule names the window-placement schedule: "" keeps the legacy
	// periodic placement (fixed-period, or target-CI when TargetRelCI is
	// set), SchedulePhase places windows on phase-cluster representatives
	// chosen by profiling the trace (internal/phase). The field marshals,
	// so phase-sampled runs have their own result-cache identity; legacy
	// policies leave every phase field zero and keep their pre-phase
	// cache keys byte-identical (all four fields are omitempty).
	Schedule string `json:"schedule,omitempty"`
	// PhaseIntervals is the number of equal profiling intervals the
	// measure span is divided into for signature extraction
	// (0 = DefaultPhaseIntervals). Phase schedule only.
	PhaseIntervals int `json:"phase_intervals,omitempty"`
	// PhaseK fixes the cluster count (0 = BIC model selection up to
	// autoMaxPhaseK clusters). Phase schedule only.
	PhaseK int `json:"phase_k,omitempty"`
	// PhaseSeed seeds the signature projection and the k-means
	// initialisation (0 = 1). Phase runs are fully deterministic for a
	// given seed — no math/rand global state anywhere in the pipeline.
	PhaseSeed uint64 `json:"phase_seed,omitempty"`
}

// DefaultPolicy returns the standard sampling configuration: 2K-reference
// detailed windows with a 512-reference detailed warm prefix, ~30K
// references of functional warming in between (a 1/16 measured detail
// fraction), clock warming at CPI 1.
func DefaultPolicy() *Policy {
	return &Policy{DetailedRefs: 2048, WarmRefs: 30208, DetailedWarmRefs: 512}
}

// Validate checks the policy.
func (p *Policy) Validate() error {
	if p.DetailedRefs == 0 {
		return fmt.Errorf("sample: DetailedRefs must be > 0")
	}
	if p.WarmRefs == 0 {
		return fmt.Errorf("sample: WarmRefs must be > 0 (use an exact run instead)")
	}
	if p.NominalCPI < 0 || math.IsNaN(p.NominalCPI) || math.IsInf(p.NominalCPI, 0) {
		return fmt.Errorf("sample: NominalCPI %v out of range", p.NominalCPI)
	}
	if p.TargetRelCI < 0 || p.TargetRelCI >= 1 || math.IsNaN(p.TargetRelCI) {
		return fmt.Errorf("sample: TargetRelCI %v out of range [0, 1)", p.TargetRelCI)
	}
	if p.MinWindows < 0 {
		return fmt.Errorf("sample: MinWindows %d < 0", p.MinWindows)
	}
	if p.MaxWindows < 0 {
		return fmt.Errorf("sample: MaxWindows %d < 0", p.MaxWindows)
	}
	if p.SegmentWindows < 0 {
		return fmt.Errorf("sample: SegmentWindows %d < 0", p.SegmentWindows)
	}
	if p.Parallelism < 0 || p.Parallelism > MaxParallelism {
		return fmt.Errorf("sample: Parallelism %d out of range [0, %d]", p.Parallelism, MaxParallelism)
	}
	if p.Parallelism > 1 && p.SegmentWindows == 0 {
		return fmt.Errorf("sample: Parallelism %d needs SegmentWindows > 0 (the segment-parallel schedule)", p.Parallelism)
	}
	if p.TargetRelCI > 0 && p.SegmentWindows > 0 {
		return fmt.Errorf("sample: TargetRelCI is incompatible with SegmentWindows (early stop would depend on scheduling order)")
	}
	switch p.Schedule {
	case "", SchedulePhase:
	default:
		return fmt.Errorf("sample: unknown schedule %q (accepted: \"\" | %q)", p.Schedule, SchedulePhase)
	}
	if p.Schedule != SchedulePhase && (p.PhaseIntervals != 0 || p.PhaseK != 0 || p.PhaseSeed != 0) {
		return fmt.Errorf("sample: PhaseIntervals/PhaseK/PhaseSeed need Schedule %q", SchedulePhase)
	}
	if p.PhaseIntervals < 0 || p.PhaseIntervals == 1 || p.PhaseIntervals > MaxPhaseIntervals {
		return fmt.Errorf("sample: PhaseIntervals %d out of range [2, %d] (or 0 for the default)", p.PhaseIntervals, MaxPhaseIntervals)
	}
	if p.PhaseK < 0 || p.PhaseK > MaxPhaseK {
		return fmt.Errorf("sample: PhaseK %d out of range [0, %d]", p.PhaseK, MaxPhaseK)
	}
	if p.PhaseK > 0 && p.PhaseIntervals > 0 && p.PhaseK > p.PhaseIntervals {
		return fmt.Errorf("sample: PhaseK %d > PhaseIntervals %d", p.PhaseK, p.PhaseIntervals)
	}
	if p.Schedule == SchedulePhase {
		if p.TargetRelCI > 0 {
			return fmt.Errorf("sample: TargetRelCI is incompatible with the phase schedule (the representative set is fixed before measurement)")
		}
		if p.SegmentWindows > 0 {
			return fmt.Errorf("sample: SegmentWindows is incompatible with the phase schedule (windows sit on cluster representatives, not a periodic grid)")
		}
	}
	return nil
}

// withDefaults returns a copy with the optional fields resolved.
func (p Policy) withDefaults() Policy {
	if p.NominalCPI == 0 {
		p.NominalCPI = 1
	}
	if p.MinWindows == 0 {
		p.MinWindows = 8
	}
	if p.Schedule == SchedulePhase {
		if p.PhaseIntervals == 0 {
			p.PhaseIntervals = DefaultPhaseIntervals
		}
		if p.PhaseSeed == 0 {
			p.PhaseSeed = 1
		}
	}
	return p
}

// z95 is the two-sided 95% normal quantile the CLT interval uses.
const z95 = 1.96

// Stat is one statistic's point estimate with its CLT-based 95%
// confidence interval, computed over per-window samples.
type Stat struct {
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"std_dev"` // sample standard deviation across windows
	CILow  float64 `json:"ci_low"`
	CIHigh float64 `json:"ci_high"`
	N      int     `json:"n"` // windows that contributed a sample
}

// RelCI returns the CI half-width relative to the mean (0.02 = ±2%). A
// zero mean with a non-zero interval reports +Inf.
func (s Stat) RelCI() float64 {
	half := (s.CIHigh - s.CILow) / 2
	if s.Mean == 0 {
		if half == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return half / math.Abs(s.Mean)
}

// Contains reports whether x falls inside the confidence interval.
func (s Stat) Contains(x float64) bool { return x >= s.CILow && x <= s.CIHigh }

// Welford accumulates mean and variance online (Welford's algorithm), so
// the engine never stores per-window samples.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add records one sample.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the sample count.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean (0 with no samples).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 with fewer than two
// samples).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Stat renders the accumulated samples as a point estimate with its 95%
// confidence interval.
func (w *Welford) Stat() Stat {
	sd := math.Sqrt(w.Variance())
	half := 0.0
	if w.n > 0 {
		half = z95 * sd / math.Sqrt(float64(w.n))
	}
	return Stat{
		Mean:   w.mean,
		StdDev: sd,
		CILow:  w.mean - half,
		CIHigh: w.mean + half,
		N:      w.n,
	}
}

// Ratio accumulates a per-window ratio statistic R = Σy/Σx — the
// estimator for aggregate rates like IPC (instructions over cycles) where
// per-window denominators vary, so a plain mean of per-window ratios
// would weight windows equally and bias the estimate. The confidence
// interval uses the standard ratio-estimator variance: with residuals
// d_i = y_i - R·x_i, Var(R) ≈ s²_d / (n·x̄²).
type Ratio struct {
	n             int
	sy, sx        float64
	syy, sxx, sxy float64
}

// Add records one window's numerator and denominator.
func (r *Ratio) Add(y, x float64) {
	r.n++
	r.sy += y
	r.sx += x
	r.syy += y * y
	r.sxx += x * x
	r.sxy += x * y
}

// N returns the window count.
func (r *Ratio) N() int { return r.n }

// Stat renders the pooled ratio with its 95% confidence interval.
func (r *Ratio) Stat() Stat {
	if r.n == 0 || r.sx == 0 {
		return Stat{N: r.n}
	}
	R := r.sy / r.sx
	st := Stat{Mean: R, CILow: R, CIHigh: R, N: r.n}
	if r.n >= 2 {
		s2d := (r.syy - 2*R*r.sxy + R*R*r.sxx) / float64(r.n-1)
		if s2d < 0 {
			s2d = 0 // floating-point cancellation on near-constant windows
		}
		xbar := r.sx / float64(r.n)
		st.StdDev = math.Sqrt(s2d) / xbar
		half := z95 * st.StdDev / math.Sqrt(float64(r.n))
		st.CILow, st.CIHigh = R-half, R+half
	}
	return st
}

// StratRatio extends Ratio to mass-weighted strata — the estimator the
// phase schedule pools windows with. Each detailed window belongs to a
// stratum (its phase cluster) and carries the interval mass it represents
// (cluster size over windows allocated to the cluster); the pooled
// estimate is the ratio of mass-weighted stratum means,
//
//	R = Σ_c M_c·ȳ_c / Σ_c M_c·x̄_c,  M_c = stratum mass actually measured,
//
// so a cluster covering half the run's intervals contributes half the
// estimate no matter how many windows it received. The confidence
// interval uses the stratified ratio-estimator variance over
// within-stratum residuals d = y − R·x only,
//
//	Var(R) ≈ Σ_c M_c²·s²_{d,c}/n_c / (Σ_c M_c·x̄_c)²,
//
// which is the stratification win: between-phase variation — the dominant
// term in the periodic schedule's CI — is carried by the weights instead
// of the variance. Strata with a single window contribute zero variance
// (the SimPoint homogeneity assumption: a cluster's intervals behave like
// their representative); the reported interval is therefore a
// within-phase CI, exact in the limit of perfectly homogeneous clusters.
type StratRatio struct {
	strata map[int]*stratum
	order  []int // insertion-ordered stratum keys, for deterministic pooling
}

type stratum struct {
	weight                float64 // interval mass per window
	n                     int
	sy, sx, syy, sxx, sxy float64
}

// Add records one window's numerator and denominator under the given
// stratum, weighted by the interval mass the window represents.
func (s *StratRatio) Add(strat int, weight, y, x float64) {
	if s.strata == nil {
		s.strata = make(map[int]*stratum)
	}
	st := s.strata[strat]
	if st == nil {
		st = &stratum{weight: weight}
		s.strata[strat] = st
		s.order = append(s.order, strat)
	}
	st.n++
	st.sy += y
	st.sx += x
	st.syy += y * y
	st.sxx += x * x
	st.sxy += x * y
}

// N returns the total window count across strata.
func (s *StratRatio) N() int {
	n := 0
	for _, st := range s.strata {
		n += st.n
	}
	return n
}

// Stat renders the mass-weighted pooled ratio with its 95% confidence
// interval. Strata are pooled in insertion order, so the result is a pure
// function of the sample sequence.
func (s *StratRatio) Stat() Stat {
	var wy, wx float64
	n := 0
	for _, key := range s.order {
		st := s.strata[key]
		if st.n == 0 {
			continue
		}
		n += st.n
		m := st.weight * float64(st.n)
		wy += m * st.sy / float64(st.n)
		wx += m * st.sx / float64(st.n)
	}
	if n == 0 || wx == 0 {
		return Stat{N: n}
	}
	R := wy / wx
	st := Stat{Mean: R, CILow: R, CIHigh: R, N: n}
	var varR float64
	for _, key := range s.order {
		str := s.strata[key]
		if str.n < 2 {
			continue
		}
		nn := float64(str.n)
		sumD2 := str.syy - 2*R*str.sxy + R*R*str.sxx
		dbar := (str.sy - R*str.sx) / nn
		s2d := (sumD2 - nn*dbar*dbar) / (nn - 1)
		if s2d < 0 {
			s2d = 0 // floating-point cancellation on near-constant windows
		}
		m := str.weight * nn
		varR += m * m * s2d / nn
	}
	varR /= wx * wx
	half := z95 * math.Sqrt(varR)
	// StdDev keeps Stat's field relationship half = z·sd/√n, so RelCI and
	// downstream renderers treat both estimators uniformly.
	st.StdDev = math.Sqrt(varR * float64(n))
	st.CILow, st.CIHigh = R-half, R+half
	return st
}

// PhaseSummary describes how a phase-scheduled run spent its budget,
// surfaced as Estimate.Phase.
type PhaseSummary struct {
	// Intervals is the number of profiling intervals actually observed
	// (fewer than Policy.PhaseIntervals when the stream ends early) and
	// IntervalRefs their length in references.
	Intervals    int    `json:"intervals"`
	IntervalRefs uint64 `json:"interval_refs"`
	// ProfiledRefs counts the references the signature pass consumed —
	// a stream walk outside the simulation, so it is not in TotalRefs.
	ProfiledRefs uint64 `json:"profiled_refs"`
	// K is the cluster count used (chosen by BIC when Policy.PhaseK is
	// zero) and Masses each cluster's interval count.
	K      int   `json:"k"`
	Masses []int `json:"masses"`
	// RepWindows is the number of detailed windows measured on cluster
	// representatives.
	RepWindows int `json:"rep_windows"`
}

// Estimate is a sampled run's statistical summary, surfaced as
// sim.Result.Estimate.
type Estimate struct {
	// Policy echoes the sampling configuration the run used (with
	// optional fields resolved).
	Policy Policy `json:"policy"`

	// Windows is the number of detailed measurement windows taken.
	Windows int `json:"windows"`
	// DetailedRefs and WarmRefs are the run's total references through
	// the detailed and functional paths (WarmRefs includes the initial
	// warm-up span).
	DetailedRefs uint64 `json:"detailed_refs"`
	WarmRefs     uint64 `json:"warm_refs"`
	// TargetMet reports whether a target-CI run stopped because it
	// reached its target (false for fixed-period runs).
	TargetMet bool `json:"target_met,omitempty"`
	// Phase summarises the phase-aware schedule (nil for periodic
	// schedules).
	Phase *PhaseSummary `json:"phase,omitempty"`

	IPC        Stat `json:"ipc"`
	L1MissRate Stat `json:"l1_miss_rate"`
	L2MissRate Stat `json:"l2_miss_rate"`
}
