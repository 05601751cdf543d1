package golden

// The golden regression: recompute every benchmark's stats under the
// corpus configuration and compare byte-for-byte against testdata/golden.
// Any drift fails until the corpus is regenerated deliberately
// (`go run ./cmd/tkgold -update`); -short verifies a representative
// subset at the same full scale.

import (
	"os"
	"testing"

	"timekeeping/internal/workload"
)

func corpusBenches() []string {
	if testing.Short() {
		return []string{"eon", "twolf", "ammp", "swim", "mcf", "gcc"}
	}
	return workload.Names()
}

// TestCorpusComplete: every benchmark in the suite has a stored entry —
// all 26, regardless of -short (reading files is free).
func TestCorpusComplete(t *testing.T) {
	names := workload.Names()
	if len(names) != 26 {
		t.Fatalf("workload suite has %d benchmarks, want 26", len(names))
	}
	for _, b := range names {
		if _, err := os.Stat(Path(b)); err != nil {
			t.Errorf("missing golden entry for %s: %v (run `go run ./cmd/tkgold -update`)", b, err)
		}
	}
	if _, err := os.Stat(BenchFile.Path(Dir())); err != nil {
		t.Errorf("missing bench_fig1 corpus: %v", err)
	}
}

func TestGoldenStats(t *testing.T) {
	opt := CorpusOptions()
	for _, b := range corpusBenches() {
		want, err := Load(b)
		if err != nil {
			t.Fatalf("%s: %v (run `go run ./cmd/tkgold -update`)", b, err)
		}
		got, err := Compute(b, opt)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if d := Diff(got, want); d != "" {
			t.Errorf("%s drifted: %s\nregenerate with `go run ./cmd/tkgold -update` if intentional", b, d)
		}
		if got.TotalRefs == 0 || got.Hier.Accesses == 0 {
			t.Errorf("%s: empty run (TotalRefs=%d, Accesses=%d)", b, got.TotalRefs, got.Hier.Accesses)
		}
	}
}

// TestGoldenBenchScale verifies the reduced-scale corpus the benchmark
// smoke checks (bench_fig1.json), including that its entries match what
// bench_test.go's runner configuration produces.
func TestGoldenBenchScale(t *testing.T) {
	want, err := BenchFile.Load(Dir())
	if err != nil {
		t.Fatalf("%v (run `go run ./cmd/tkgold -update`)", err)
	}
	if len(want) == 0 {
		t.Fatal("empty bench corpus")
	}
	opt := BenchScaleOptions()
	entries := want
	if testing.Short() {
		entries = want[:2]
	}
	for _, w := range entries {
		got, err := Compute(w.Bench, opt)
		if err != nil {
			t.Fatalf("%s: %v", w.Bench, err)
		}
		if d := Diff(got, w); d != "" {
			t.Errorf("%s (bench scale) drifted: %s", w.Bench, d)
		}
	}
}

// TestDiffReportsFirstDivergingField sanity-checks the drift reporter.
func TestDiffReportsFirstDivergingField(t *testing.T) {
	a := Entry{Bench: "x", TotalRefs: 1}
	b := Entry{Bench: "x", TotalRefs: 2}
	if d := Diff(a, a); d != "" {
		t.Fatalf("identical entries reported drift: %s", d)
	}
	if d := Diff(a, b); d == "" {
		t.Fatal("differing entries reported no drift")
	}
}
