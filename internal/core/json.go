package core

import (
	"encoding/json"
	"fmt"

	"timekeeping/internal/classify"
	"timekeeping/internal/stats"
)

// Metrics keeps the decay-predictor tallies in an unexported slice, so
// plain encoding/json would drop them and a decoded result would panic
// in DecayAccuracy. The wire form below carries every field explicitly;
// sim.Result's JSON, the API and golden-corpus form, depends on it
// round-tripping losslessly. The disk result tier (internal/store) keeps
// the binary form in binary.go instead.

// decayTallyJSON is decayTally's wire form.
type decayTallyJSON struct {
	Made    uint64 `json:"made"`
	Correct uint64 `json:"correct"`
}

// metricsJSON is Metrics' wire form.
type metricsJSON struct {
	Generations  uint64                            `json:"generations"`
	Live         *stats.Hist                       `json:"live"`
	Dead         *stats.Hist                       `json:"dead"`
	AccInt       *stats.Hist                       `json:"acc_int"`
	Reload       *stats.Hist                       `json:"reload"`
	DeadByKind   map[classify.MissKind]*stats.Hist `json:"dead_by_kind"`
	ReloadByKind map[classify.MissKind]*stats.Hist `json:"reload_by_kind"`
	ZeroLive     stats.BinaryPredictionTally       `json:"zero_live"`
	Decay        []decayTallyJSON                  `json:"decay"`
	LivePred     stats.BinaryPredictionTally       `json:"live_pred"`
	LiveDiff     *stats.DiffHist                   `json:"live_diff"`
	LiveRatio    *stats.RatioHist                  `json:"live_ratio"`
}

// MarshalJSON encodes the metrics including the decay-predictor tallies.
func (m *Metrics) MarshalJSON() ([]byte, error) {
	decay := make([]decayTallyJSON, len(m.decay))
	for i, t := range m.decay {
		decay[i] = decayTallyJSON{Made: t.made, Correct: t.correct}
	}
	return json.Marshal(metricsJSON{
		Generations:  m.Generations,
		Live:         m.Live,
		Dead:         m.Dead,
		AccInt:       m.AccInt,
		Reload:       m.Reload,
		DeadByKind:   m.DeadByKind,
		ReloadByKind: m.ReloadByKind,
		ZeroLive:     m.ZeroLive,
		Decay:        decay,
		LivePred:     m.LivePred,
		LiveDiff:     m.LiveDiff,
		LiveRatio:    m.LiveRatio,
	})
}

// UnmarshalJSON decodes metrics, validating that the decay tallies match
// the predictor thresholds this build sweeps.
func (m *Metrics) UnmarshalJSON(data []byte) error {
	var w metricsJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if len(w.Decay) != len(DecayThresholds) {
		return fmt.Errorf("core: Metrics: %d decay tallies, want %d", len(w.Decay), len(DecayThresholds))
	}
	m.Generations = w.Generations
	m.Live = w.Live
	m.Dead = w.Dead
	m.AccInt = w.AccInt
	m.Reload = w.Reload
	m.DeadByKind = w.DeadByKind
	m.ReloadByKind = w.ReloadByKind
	m.ZeroLive = w.ZeroLive
	m.decay = make([]decayTally, len(w.Decay))
	for i, t := range w.Decay {
		m.decay[i] = decayTally{made: t.Made, correct: t.Correct}
	}
	m.LivePred = w.LivePred
	m.LiveDiff = w.LiveDiff
	m.LiveRatio = w.LiveRatio
	return nil
}
