package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"timekeeping/internal/sample"
	"timekeeping/internal/telemetry"
)

// tinyScale runs every workload and the probe in a few seconds, on two
// benches, with a sampling policy small enough for short runs.
func tinyScale() scale {
	return scale{
		benches:         []string{"mcf", "gcc"},
		warmup:          2_000,
		measure:         20_480,
		policy:          sample.Policy{DetailedRefs: 128, WarmRefs: 512, DetailedWarmRefs: 32},
		reps:            2,
		reqWarmup:       500,
		reqRefs:         2_000,
		keys:            4,
		coldPerRound:    2,
		hitsPerRound:    8,
		proxiedPerRound: 4,
		rounds:          2,
		probeWarmup:     1_000,
		probeMeasure:    10_240,
		probeCalls:      40,
	}
}

// tinyEnv is the environment the tests run workloads in.
func tinyEnv(t *testing.T, seed uint64) *env {
	return &env{seed: seed, seconds: 1, scale: tinyScale(), workdir: t.TempDir(), cal: newCalibrator()}
}

func skipUnderAudit(t *testing.T) {
	t.Helper()
	if os.Getenv("TK_AUDIT") != "" {
		t.Skip("TK_AUDIT moves every run onto the audited reference loop; the benchmark refuses to run under it")
	}
}

// manifest is the part of BENCHMARK.json the harness must agree with.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesHarness keeps BENCHMARK.json and the harness's
// catalogs identical: workloads, metric names, units and directions.
func TestManifestMatchesHarness(t *testing.T) {
	m := loadManifest(t)
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); !equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", got, want)
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(m.EndToEnd), len(endToEnd))
	}
	for i := 0; i < len(m.EndToEnd) && i < len(endToEnd); i++ {
		got, want := m.EndToEnd[i], endToEnd[i]
		if got.Name != want.name || got.Unit != want.unit || got.Better != want.better {
			t.Errorf("end_to_end[%d] = %s %s %s, harness reports %s %s %s", i, got.Name, got.Unit, got.Better, want.name, want.unit, want.better)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", got.Name, got.Bound)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(m.PerLayer), len(perLayer))
	}
	for i := 0; i < len(m.PerLayer) && i < len(perLayer); i++ {
		got, want := m.PerLayer[i], perLayer[i]
		if got.Name != want.name || got.Unit != want.unit || got.Better != want.better {
			t.Errorf("per_layer[%d] = %s %s %s, harness reports %s %s %s", i, got.Name, got.Unit, got.Better, want.name, want.unit, want.better)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is malformed or repeated", d.name)
		}
		seen[d.name] = true
	}
	if !equal(m.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkSummary decodes the summary line printReport ends with and checks
// it against the catalog: every metric present with its unit, nothing
// else, every value finite.
func checkSummary(t *testing.T, rep report, traced bool, defs []metricDef) summary {
	t.Helper()
	var buf bytes.Buffer
	if err := printReport(&buf, rep, traced); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var s summary
	dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("%s summary line: %v", rep.Workload, err)
	}
	if len(s.Metrics) != len(defs) {
		t.Errorf("%s reports %d metrics, want %d", rep.Workload, len(s.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := s.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", rep.Workload, d.name)
		case v.Unit != d.unit:
			t.Errorf("%s: %s unit %q, want %q", rep.Workload, d.name, v.Unit, d.unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: %s = %v", rep.Workload, d.name, v.Value)
		}
	}
	if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
		t.Errorf("%s: correct %v, %d of %d failed: %v", rep.Workload, s.Correct, s.Failed, s.Attempted, rep.Problems)
	}
	return s
}

// TestEveryWorkloadTiny runs every workload at the tiny scale and checks
// its output against the manifest.
func TestEveryWorkloadTiny(t *testing.T) {
	skipUnderAudit(t)
	start := time.Now()
	for _, w := range workloads {
		rep, err := run(context.Background(), w, tinyEnv(t, 3), false, "")
		if err != nil {
			t.Fatalf("%s: %v", w.name(), err)
		}
		s := checkSummary(t, rep, false, endToEnd)
		for _, d := range endToEnd {
			if s.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name(), d.name, s.Metrics[d.name].Value)
			}
		}
	}
	t.Logf("every workload at the tiny scale took %v", time.Since(start))
}

// TestRepeatIsDeterministic: the same seed gives the same statistics.
func TestRepeatIsDeterministic(t *testing.T) {
	skipUnderAudit(t)
	for _, w := range []benchWorkload{sampledWorkload, lookup("serve")} {
		var digests []string
		for i := 0; i < 2; i++ {
			rep, err := run(context.Background(), w, tinyEnv(t, 5), false, "")
			if err != nil {
				t.Fatal(err)
			}
			digests = append(digests, rep.Digest)
		}
		if digests[0] != digests[1] {
			t.Errorf("%s digests differ across runs: %v", w.name(), digests)
		}
	}
}

// TestTracedRun checks the traced run's artifacts: a Chrome trace that
// decodes, a layers file and summary with every per-layer metric, and
// spans that account for at least 90% of the traced run's wall time.
func TestTracedRun(t *testing.T) {
	skipUnderAudit(t)
	for _, w := range []benchWorkload{exactWorkload, lookup("serve")} {
		dir := t.TempDir()
		rep, err := run(context.Background(), w, tinyEnv(t, 1), true, dir)
		if err != nil {
			t.Fatalf("%s: %v", w.name(), err)
		}
		checkSummary(t, rep, true, perLayer)

		blob, err := os.ReadFile(filepath.Join(dir, w.name()+".layers.json"))
		if err != nil {
			t.Fatal(err)
		}
		var layers map[string]metricValue
		if err := json.Unmarshal(blob, &layers); err != nil {
			t.Fatal(err)
		}
		for _, d := range perLayer {
			if _, ok := layers[d.name]; !ok {
				t.Errorf("%s layers file lacks %s", w.name(), d.name)
			}
		}

		spans := decodeTrace(t, filepath.Join(dir, w.name()+".trace.json"))
		if len(spans) < 10 {
			t.Fatalf("%s trace has %d spans", w.name(), len(spans))
		}
		if share := selfShare(spans); share < 0.9 {
			t.Errorf("%s: spans account for %.1f%% of the traced wall time, want >= 90%%", w.name(), 100*share)
		}
	}
}

// decodeTrace reads a Chrome trace back into spans.
func decodeTrace(t *testing.T, path string) []telemetry.Span {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string            `json:"ph"`
			Name string            `json:"name"`
			TS   int64             `json:"ts"`
			Dur  int64             `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var spans []telemetry.Span
	epoch := time.Unix(0, 0)
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		start := epoch.Add(time.Duration(ev.TS) * time.Microsecond)
		spans = append(spans, telemetry.Span{
			SpanID: ev.Args["span_id"],
			Parent: ev.Args["parent_id"],
			Name:   ev.Name,
			Start:  start,
			End:    start.Add(time.Duration(ev.Dur) * time.Microsecond),
		})
	}
	return spans
}
