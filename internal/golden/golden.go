// Package golden maintains the golden-stats regression corpus under
// testdata/golden: one JSON entry per synthetic benchmark holding the
// hierarchy statistics and predictor accuracies the paper's baseline
// configuration produces. The corpus pins the simulator's observable
// behaviour — any change to cache, hierarchy, CPU or predictor code that
// shifts a number fails the regression test until the corpus is
// regenerated deliberately via `go run ./cmd/tkgold -update`.
//
// Comparison is canonical-JSON byte equality: entries are recomputed,
// marshalled, and compared against the normalised on-disk form, which
// sidesteps float-comparison subtleties (Go's JSON float formatting is
// deterministic for identical values).
package golden

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"timekeeping/internal/core"
	"timekeeping/internal/cpu"
	"timekeeping/internal/hier"
	"timekeeping/internal/sim"
	"timekeeping/internal/stats"
	"timekeeping/internal/workload"
)

// DecayPoint is one threshold of the dead-time dead-block predictor sweep
// (Figure 14).
type DecayPoint struct {
	Threshold uint64  `json:"threshold"`
	Accuracy  float64 `json:"accuracy"`
	Coverage  float64 `json:"coverage"`
}

// Predictors captures the tracked predictor accuracies a run produced.
type Predictors struct {
	Generations uint64                      `json:"generations"`
	ZeroLive    stats.BinaryPredictionTally `json:"zero_live"`
	LivePred    stats.BinaryPredictionTally `json:"live_pred"`
	Decay       []DecayPoint                `json:"decay"`
}

// Entry is one benchmark's golden record.
type Entry struct {
	Bench       string     `json:"bench"`
	WarmupRefs  uint64     `json:"warmup_refs"`
	MeasureRefs uint64     `json:"measure_refs"`
	Seed        uint64     `json:"seed"`
	TotalRefs   uint64     `json:"total_refs"`
	CPU         cpu.Result `json:"cpu"`
	Hier        hier.Stats `json:"hier"`
	Predictors  Predictors `json:"predictors"`
}

// CorpusOptions is the configuration the corpus is recorded under: the
// paper's baseline at the default scale, with the timekeeping tracker
// attached (the same config the experiments' "base" runs use).
func CorpusOptions() sim.Options {
	opt := sim.Default()
	opt.Track = true
	return opt
}

// BenchScaleOptions is CorpusOptions at the benchmark smoke scale — it
// must match bench_test.go's runner exactly so BenchmarkFigure1 can verify
// its base-config results against bench_fig1.json.
func BenchScaleOptions() sim.Options {
	opt := CorpusOptions()
	opt.WarmupRefs = 20_000
	opt.MeasureRefs = 80_000
	return opt
}

// EntryOf assembles a golden entry from a finished run.
func EntryOf(bench string, opt sim.Options, res sim.Result) Entry {
	e := Entry{
		Bench:       bench,
		WarmupRefs:  opt.WarmupRefs,
		MeasureRefs: opt.MeasureRefs,
		Seed:        opt.Seed,
		TotalRefs:   res.TotalRefs,
		CPU:         res.CPU,
		Hier:        res.Hier,
	}
	if m := res.Tracker; m != nil {
		e.Predictors.Generations = m.Generations
		e.Predictors.ZeroLive = m.ZeroLive
		e.Predictors.LivePred = m.LivePred
		for i, th := range core.DecayThresholds {
			acc, cov := m.DecayAccuracy(i)
			e.Predictors.Decay = append(e.Predictors.Decay, DecayPoint{Threshold: th, Accuracy: acc, Coverage: cov})
		}
	}
	return e
}

// Compute runs the benchmark under opt and assembles its entry.
func Compute(bench string, opt sim.Options) (Entry, error) {
	res, err := sim.Run(context.Background(), sim.Spec{
		Workload: workload.MustProfile(bench),
		Opts:     opt,
	})
	if err != nil {
		return Entry{}, err
	}
	return EntryOf(bench, opt, res), nil
}

// Dir returns the corpus directory (<repo root>/testdata/golden), resolved
// from this source file so tests and tools work from any working
// directory.
func Dir() string {
	_, file, _, _ := runtime.Caller(0)
	return filepath.Join(filepath.Dir(file), "..", "..", "testdata", "golden")
}

// Path returns the benchmark's corpus file.
func Path(bench string) string { return PathIn(Dir(), bench) }

// PathIn is Path against an alternate corpus directory (tkgold's -dir).
func PathIn(dir, bench string) string { return filepath.Join(dir, bench+".json") }

// A ListFile is a corpus file, named within the corpus directory, that
// holds a JSON list of T records.
type ListFile[T any] string

// BenchFile is the benchmark-smoke corpus (the []Entry that
// BenchmarkFigure1 verifies).
const BenchFile ListFile[Entry] = "bench_fig1.json"

// Path returns the file's path in corpus directory dir.
func (f ListFile[T]) Path(dir string) string { return filepath.Join(dir, string(f)) }

// Load reads the file from corpus directory dir (tkgold's -dir, or Dir()).
func (f ListFile[T]) Load(dir string) ([]T, error) { return read[[]T](f.Path(dir)) }

// Save writes the file in the corpus directory.
func (f ListFile[T]) Save(es []T) error { return write(f.Path(Dir()), es) }

// Marshal renders the canonical on-disk form.
func Marshal(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Save writes the entry to its corpus file.
func Save(e Entry) error { return write(Path(e.Bench), e) }

// Load reads a benchmark's stored entry.
func Load(bench string) (Entry, error) { return LoadFrom(Dir(), bench) }

// LoadFrom reads a benchmark's stored entry from an alternate corpus
// directory.
func LoadFrom(dir, bench string) (Entry, error) { return read[Entry](PathIn(dir, bench)) }

// read decodes the corpus file at path.
func read[T any](path string) (T, error) {
	var v T
	b, err := os.ReadFile(path)
	if err != nil {
		return v, err
	}
	err = json.Unmarshal(b, &v)
	return v, err
}

// write stores v at path in canonical form, creating the corpus directory
// if needed.
func write(path string, v any) error {
	b, err := Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Diff compares a freshly computed corpus record (an Entry, PhaseEntry or
// MechEntry) against a stored one in canonical form and returns a
// description of the drift, or "" when they match.
func Diff[T any](got, want T) string {
	gb, err := Marshal(got)
	if err != nil {
		return fmt.Sprintf("marshal: %v", err)
	}
	wb, err := Marshal(want)
	if err != nil {
		return fmt.Sprintf("marshal: %v", err)
	}
	if bytes.Equal(gb, wb) {
		return ""
	}
	return describeDrift(gb, wb)
}

// maxDriftLines caps how many differing lines describeDrift enumerates
// per entry.
const maxDriftLines = 8

// describeDrift enumerates the differing lines of the two canonical forms
// (up to maxDriftLines), so a failing regression test says which stats
// moved — all of them, not just the first.
func describeDrift(got, want []byte) string {
	gl := bytes.Split(got, []byte("\n"))
	wl := bytes.Split(want, []byte("\n"))
	n := len(gl)
	if len(wl) < n {
		n = len(wl)
	}
	var diffs []string
	extra := 0
	for i := 0; i < n; i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			if len(diffs) == maxDriftLines {
				extra++
				continue
			}
			diffs = append(diffs, fmt.Sprintf("line %d: got %s, want %s",
				i+1, bytes.TrimSpace(gl[i]), bytes.TrimSpace(wl[i])))
		}
	}
	if len(gl) != len(wl) {
		diffs = append(diffs, fmt.Sprintf("length differs: got %d lines, want %d", len(gl), len(wl)))
	}
	if extra > 0 {
		diffs = append(diffs, fmt.Sprintf("... and %d more differing lines", extra))
	}
	if len(diffs) == 0 {
		// Equal canonical forms reach Diff's early return; this is only
		// possible if got/want differ in a way Split hides.
		return "entries differ"
	}
	return strings.Join(diffs, "; ")
}
