// Package core is the paper's contribution: timekeeping in the memory
// system. It tracks the generational behaviour of every L1 cache frame —
// live time, dead time, access interval, reload interval (Figure 3) —
// using only the small per-line counter hardware the paper describes, and
// builds the paper's predictors on top:
//
//   - conflict-miss identification from reload interval, dead time, or a
//     zero live time (Section 4.1);
//   - dead-block prediction from a decay-style idle threshold (Section
//     5.1.1) or from the regularity of per-frame live times (5.1.2);
//   - the unified address + live-time correlation table that drives
//     timekeeping prefetch (Section 5.2.1).
package core

import (
	"timekeeping/internal/classify"
	"timekeeping/internal/hier"
	"timekeeping/internal/stats"
)

// Histogram shapes shared with the paper's figures.
const (
	// ShortBucket is the 100-cycle bucket width of the live-time,
	// dead-time and access-interval plots (Figures 4, 5, 9).
	ShortBucket = 100
	// LongBucket is the 1000-cycle bucket width of the reload-interval
	// plots (Figures 5, 7).
	LongBucket = 1000
	// PlotBuckets is the number of buckets before the ">100" overflow bar.
	PlotBuckets = 100
	// PredBuckets extends the per-miss-kind histograms far enough to
	// resolve the largest predictor thresholds the paper sweeps
	// (512K-cycle reload intervals in Figure 8, 51200-cycle dead times in
	// Figure 10).
	PredBuckets = 1024
	// LiveTimeResolution quantises live times like the paper's 16-cycle
	// profiling counters (Figure 15).
	LiveTimeResolution = 16
)

// DecayThresholds are the dead-time dead-block predictor thresholds of
// Figure 14 (cycles).
var DecayThresholds = []uint64{40, 80, 160, 320, 640, 1280, 2560, 5120}

// LiveTimeScale is the paper's dead-point heuristic: a block is predicted
// dead at LiveTimeScale x its predicted live time after the generation
// starts ("twice its previous live time").
const LiveTimeScale = 2

// Generation is one completed cache-frame generation.
type Generation struct {
	Block    uint64
	StartAt  uint64 // fill time
	EndAt    uint64 // eviction time
	LiveTime uint64 // 0 when the block was never hit
	DeadTime uint64
	Hits     uint64
	MaxAI    uint64 // largest access interval observed within the live time
}

// GenTime returns the generation's total duration.
func (g Generation) GenTime() uint64 { return sub(g.EndAt, g.StartAt) }

// decayTally accumulates Figure 14's per-threshold outcomes.
type decayTally struct {
	made    uint64
	correct uint64
}

// Metrics is everything the Tracker accumulates. All histograms use the
// paper's bucket shapes.
type Metrics struct {
	Generations uint64

	Live   *stats.Hist // live times, 100-cycle buckets
	Dead   *stats.Hist // dead times, 100-cycle buckets
	AccInt *stats.Hist // access intervals, 100-cycle buckets
	Reload *stats.Hist // reload intervals, 1000-cycle buckets

	// Per-miss-kind views of the *previous generation's* metrics, keyed
	// by the Hill class of the miss that follows (Figures 7 and 9).
	DeadByKind   map[classify.MissKind]*stats.Hist
	ReloadByKind map[classify.MissKind]*stats.Hist

	// ZeroLive tallies the "live time == 0 predicts conflict" predictor
	// (Figure 11): Events counts classified (non-cold) misses with a
	// known previous generation.
	ZeroLive stats.BinaryPredictionTally

	// Decay tallies the dead-time dead-block predictor per threshold in
	// DecayThresholds (Figure 14); events are generations.
	decay []decayTally

	// LivePred tallies the live-time ("2x last") dead-block predictor
	// (Figure 16); events are generations with a known previous live
	// time.
	LivePred stats.BinaryPredictionTally

	// LiveDiff and LiveRatio capture consecutive live-time variability
	// (Figure 15): signed differences at 16-cycle resolution and the
	// cumulative current/previous ratio.
	LiveDiff  *stats.DiffHist
	LiveRatio *stats.RatioHist
}

// NewMetrics returns empty metrics with the paper's histogram shapes.
func NewMetrics() *Metrics {
	return &Metrics{
		Live:   stats.NewHist(ShortBucket, PlotBuckets),
		Dead:   stats.NewHist(ShortBucket, PlotBuckets),
		AccInt: stats.NewHist(ShortBucket, PlotBuckets),
		Reload: stats.NewHist(LongBucket, PlotBuckets),
		DeadByKind: map[classify.MissKind]*stats.Hist{
			classify.Conflict: stats.NewHist(ShortBucket, PredBuckets),
			classify.Capacity: stats.NewHist(ShortBucket, PredBuckets),
		},
		ReloadByKind: map[classify.MissKind]*stats.Hist{
			classify.Conflict: stats.NewHist(LongBucket, PredBuckets),
			classify.Capacity: stats.NewHist(LongBucket, PredBuckets),
		},
		decay:     make([]decayTally, len(DecayThresholds)),
		LiveDiff:  stats.NewDiffHist(LiveTimeResolution, 10),
		LiveRatio: stats.NewRatioHist(10),
	}
}

// DecayAccuracy returns accuracy and prediction-rate coverage for the
// dead-time dead-block predictor at DecayThresholds[i] (Figure 14).
func (m *Metrics) DecayAccuracy(i int) (accuracy, coverage float64) {
	t := m.decay[i]
	if t.made > 0 {
		accuracy = float64(t.correct) / float64(t.made)
	}
	if m.Generations > 0 {
		coverage = float64(t.made) / float64(m.Generations)
	}
	return accuracy, coverage
}

// Merge folds other into m (suite-wide aggregation).
func (m *Metrics) Merge(other *Metrics) {
	m.Generations += other.Generations
	m.Live.Merge(other.Live)
	m.Dead.Merge(other.Dead)
	m.AccInt.Merge(other.AccInt)
	m.Reload.Merge(other.Reload)
	for k := range m.DeadByKind {
		m.DeadByKind[k].Merge(other.DeadByKind[k])
		m.ReloadByKind[k].Merge(other.ReloadByKind[k])
	}
	m.ZeroLive.Predictions += other.ZeroLive.Predictions
	m.ZeroLive.Correct += other.ZeroLive.Correct
	m.ZeroLive.Events += other.ZeroLive.Events
	for i := range m.decay {
		m.decay[i].made += other.decay[i].made
		m.decay[i].correct += other.decay[i].correct
	}
	m.LivePred.Predictions += other.LivePred.Predictions
	m.LivePred.Correct += other.LivePred.Correct
	m.LivePred.Events += other.LivePred.Events
	m.LiveDiff.Merge(other.LiveDiff)
	m.LiveRatio.Merge(other.LiveRatio)
}

// sub returns a-b clamped at zero: reference issue times are only
// approximately monotonic (out-of-order issue), so interval arithmetic
// must tolerate small inversions.
func sub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// frameGen is the per-frame generation state: exactly the counter hardware
// of Figures 12 and 18 (generation-time counter, live-time register,
// re-reference count) plus the resident block's identity.
type frameGen struct {
	block      uint64
	startAt    uint64
	lastAccess uint64
	lastHit    uint64
	hits       uint64
	maxAI      uint64
	valid      bool
}

// blockHist is the per-memory-line history the reload-interval and
// previous-generation correlations need.
type blockHist struct {
	lastStart uint64 // last generation start (for reload interval)
	prevLive  uint64 // previous generation's live time
	prevDead  uint64 // previous generation's dead time
	prevZero  bool   // previous generation had zero live time
	hasGen    bool   // a completed generation exists
	hasLive   bool   // prevLive is valid (for the live-time predictor)
}

// Tracker observes L1 accesses and accumulates the timekeeping metrics.
// Attach it to a hierarchy with AddObserver. The zero value is not usable;
// construct with NewTracker.
type Tracker struct {
	m      *Metrics
	frames []frameGen
	blocks map[uint64]*blockHist

	// quiet suppresses metric accumulation (histograms and tallies) while
	// all per-frame and per-block generation state keeps advancing — the
	// functional-warming mode of internal/sample, where the counter
	// hardware must stay warm but only detailed windows may contribute
	// statistics. Zero value: recording on.
	quiet bool

	// OnGeneration, when non-nil, is invoked for every completed
	// generation (used by tests and custom analyses).
	OnGeneration func(Generation)
}

// NewTracker returns a tracker for an L1 with the given number of frames.
func NewTracker(frames int) *Tracker {
	return &Tracker{
		m:      NewMetrics(),
		frames: make([]frameGen, frames),
		blocks: make(map[uint64]*blockHist),
	}
}

// Metrics returns the accumulated metrics.
func (t *Tracker) Metrics() *Metrics { return t.m }

// Reset clears accumulated statistics but keeps per-frame and per-block
// context, so measurement can start after warm-up without losing the
// generation in progress.
func (t *Tracker) Reset() { t.m = NewMetrics() }

// SetRecording toggles metric accumulation. With recording off the
// tracker still advances every per-frame and per-block generation state
// but adds nothing to histograms or predictor tallies; sampled runs turn
// recording on only inside detailed measurement windows.
func (t *Tracker) SetRecording(on bool) { t.quiet = !on }

// OnAccess implements hier.Observer.
func (t *Tracker) OnAccess(ev *hier.AccessEvent) {
	f := &t.frames[ev.Frame]
	if ev.Hit {
		if f.valid {
			ai := sub(ev.Now, f.lastAccess)
			if !t.quiet {
				t.m.AccInt.Add(ai)
			}
			if ai > f.maxAI {
				f.maxAI = ai
			}
			f.hits++
			if ev.Now > f.lastHit {
				f.lastHit = ev.Now
			}
			if ev.Now > f.lastAccess {
				f.lastAccess = ev.Now
			}
		}
		return
	}

	// A miss: close the victim's generation, correlate the incoming
	// block's previous generation with this miss's class, open the new
	// generation.
	if f.valid && ev.Victim.Valid {
		t.endGeneration(f, ev.Now)
	}

	bh := t.blocks[ev.Block]
	if bh == nil {
		bh = &blockHist{}
		t.blocks[ev.Block] = bh
	}
	if !t.quiet {
		if bh.lastStart > 0 && ev.Now > bh.lastStart {
			reload := sub(ev.Now, bh.lastStart)
			t.m.Reload.Add(reload)
			if h, ok := t.m.ReloadByKind[ev.MissKind]; ok {
				h.Add(reload)
			}
		}
		if bh.hasGen && (ev.MissKind == classify.Conflict || ev.MissKind == classify.Capacity) {
			if h, ok := t.m.DeadByKind[ev.MissKind]; ok {
				h.Add(bh.prevDead)
			}
			// Zero-live-time conflict predictor: predict conflict when the
			// previous generation was never hit.
			t.m.ZeroLive.Record(bh.prevZero, bh.prevZero && ev.MissKind == classify.Conflict)
		}
	}
	bh.lastStart = ev.Now

	*f = frameGen{block: ev.Block, startAt: ev.Now, lastAccess: ev.Now, lastHit: ev.Now, valid: true}
}

// endGeneration closes the frame's current generation at evict time.
func (t *Tracker) endGeneration(f *frameGen, now uint64) {
	gen := Generation{
		Block:   f.block,
		StartAt: f.startAt,
		EndAt:   now,
		Hits:    f.hits,
		MaxAI:   f.maxAI,
	}
	if f.hits > 0 {
		gen.LiveTime = sub(f.lastHit, f.startAt)
		gen.DeadTime = sub(now, f.lastHit)
	} else {
		gen.LiveTime = 0
		gen.DeadTime = sub(now, f.startAt)
	}
	if !t.quiet {
		t.m.Generations++
		t.m.Live.Add(gen.LiveTime)
		t.m.Dead.Add(gen.DeadTime)

		// Decay dead-block predictor (Figure 14): the first idle period
		// longer than the threshold triggers a prediction; it is correct
		// only if that idle period was the dead time (no access interval
		// beat it).
		for i, th := range DecayThresholds {
			switch {
			case gen.MaxAI > th:
				t.m.decay[i].made++
			case gen.DeadTime > th:
				t.m.decay[i].made++
				t.m.decay[i].correct++
			}
		}
	}

	// Live-time dead-block predictor and variability (Figures 15, 16).
	bh := t.blocks[gen.Block]
	if bh == nil {
		bh = &blockHist{}
		t.blocks[gen.Block] = bh
	}
	if !t.quiet {
		qlt := gen.LiveTime &^ (LiveTimeResolution - 1)
		if bh.hasLive {
			t.m.LiveDiff.Add(gen.LiveTime, bh.prevLive)
			t.m.LiveRatio.Add(qlt, bh.prevLive&^(LiveTimeResolution-1))
			predictAt := LiveTimeScale * bh.prevLive
			made := gen.GenTime() > predictAt
			correct := made && gen.LiveTime <= predictAt
			t.m.LivePred.Record(made, correct)
		} else {
			t.m.LivePred.Events++
		}
	}
	bh.prevLive = gen.LiveTime
	bh.hasLive = true
	bh.prevDead = gen.DeadTime
	bh.prevZero = gen.Hits == 0
	bh.hasGen = true

	if t.OnGeneration != nil {
		t.OnGeneration(gen)
	}
}
