// Command bench is the repository's benchmark: one harness for the exact,
// mechanism, sampled and served simulation paths. It prints every metric
// as "name value unit", then one JSON summary line, and exits 1 when any
// output check fails.
//
//	sh bench/run.sh -workload exact -seed 1             # timed run, end-to-end metrics
//	sh bench/run.sh -workload exact -seed 1 -trace 1    # traced run, per-layer metrics
//	sh bench/run.sh -workload all -seed 1 -out r.json   # every workload, one process each
//
// Run lengths are fixed in code as work per second of -seconds, so two
// commits measured with the same -seconds do the same work. README.md
// describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// benchWorkload is one set of inputs the benchmark runs.
type benchWorkload interface {
	name() string
	// setup builds everything one measurement needs. The harness sets up
	// several times and reports the median as setup_s.
	setup(ctx context.Context, e *env) (session, error)
}

// session is one set-up workload, ready to measure once.
type session interface {
	// measure runs the workload's operations and checks their outputs.
	// With a non-nil parent it records one span per operation under it.
	measure(ctx context.Context, parent *span) (*outcome, error)
	close()
}

// workloads lists every workload in BENCHMARK.json order.
var workloads = []benchWorkload{
	exactWorkload,
	mechanismsWorkload,
	sampledWorkload,
	&serveWorkload{},
}

// setupReps is how many times each run sets its workload up; the median
// is setup_s, so one slow set-up does not decide it.
const setupReps = 5

// env is what every workload and probe receives.
type env struct {
	seed    uint64
	seconds int
	scale   scale
	// workdir holds the serve workload's stores; removed at exit.
	workdir string
	// cal converts the timed stretches to reference-machine time.
	cal *calibrator
}

// outcome is one measurement's operations, checks and metrics.
type outcome struct {
	ops, failed int
	problems    []string
	digest      string
	wall        float64            // reference seconds the measured operations took
	metrics     map[string]float64 // end-to-end metrics
	layers      map[string]float64 // the tail and service counters, reported per layer
}

// fail counts one failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problemf(format, args...)
}

// problemf records a failed check that is not tied to one operation.
func (o *outcome) problemf(format string, args ...any) {
	const keep = 20
	if len(o.problems) < keep {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) correct() bool { return o.failed == 0 && len(o.problems) == 0 }

// add folds another outcome's operations and problems into o.
func (o *outcome) add(p *outcome) {
	o.ops += p.ops
	o.failed += p.failed
	for _, s := range p.problems {
		o.problemf("%s", s)
	}
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), " | ")+" | all")
		seed     = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 20, "run length: each workload does a fixed amount of work per second")
		traced   = flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics instead")
		traceDir = flag.String("trace-dir", "", "with -trace 1, write <workload>.trace.json and <workload>.layers.json here")
		out      = flag.String("out", "", "write the typed JSON report to this file")
	)
	flag.Parse()
	if os.Getenv("TK_AUDIT") != "" {
		// Audit mode forces every run onto the lockstep-audited reference
		// loop, so the timings would measure the oracle.
		fmt.Fprintln(os.Stderr, "bench: TK_AUDIT is set; unset it to measure")
		os.Exit(2)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *traced, *traceDir, *out))
	}
	w := lookup(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown -workload %q (accepted: %s | all)\n", *name, strings.Join(workloadNames(), " | "))
		os.Exit(2)
	}
	workdir, err := os.MkdirTemp(tmpRoot(), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	e := &env{seed: *seed, seconds: *seconds, scale: defaultScale(), workdir: workdir, cal: newCalibrator()}
	rep, err := run(context.Background(), w, e, *traced == 1, *traceDir)
	os.RemoveAll(workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if err := printReport(os.Stdout, rep, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

// tmpRoot is where runs keep their stores: inside the build directory
// of the checkout they run from.
func tmpRoot() string {
	dir := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return os.TempDir()
	}
	return dir
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name())
	}
	return names
}

func lookup(name string) benchWorkload {
	for _, w := range workloads {
		if w.name() == name {
			return w
		}
	}
	return nil
}

// run measures one workload: set-up several times, one timed measurement,
// and, when traced, a second measurement with spans plus the layer probe.
// A traced run reports per-layer metrics only; its end-to-end numbers
// would include the tracing.
func run(ctx context.Context, w benchWorkload, e *env, traced bool, traceDir string) (report, error) {
	var setups []float64
	var s session
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.close()
		}
		e.cal.mark()
		t0 := time.Now()
		var err error
		if s, err = w.setup(ctx, e); err != nil {
			return report{}, fmt.Errorf("%s set-up: %w", w.name(), err)
		}
		setups = append(setups, time.Since(t0).Seconds()*e.cal.factor())
	}
	timed, err := s.measure(ctx, nil)
	s.close()
	if err != nil {
		return report{}, fmt.Errorf("%s: %w", w.name(), err)
	}
	rep := report{
		Workload:   w.name(),
		Seed:       e.seed,
		Seconds:    e.seconds,
		Traced:     traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Digest:     timed.digest,
	}
	total := &outcome{}
	total.add(timed)
	if !traced {
		m := timed.metrics
		m["setup_s"] = median(setups)
		m["max_rss_mb"] = maxRSSMB()
		rep.Metrics = values(endToEnd, m)
	} else {
		layers, err := traceRun(ctx, w, e, timed, total, traceDir)
		if err != nil {
			return report{}, err
		}
		rep.Metrics = values(perLayer, layers)
	}
	rep.Ops, rep.Failed, rep.Problems, rep.Correct = total.ops, total.failed, total.problems, total.correct()
	return rep, nil
}

// traceRun measures the workload again under spans, runs the layer probe,
// and assembles the per-layer metrics. timed is the untraced measurement
// the tracing overhead is taken against; total collects every operation.
func traceRun(ctx context.Context, w benchWorkload, e *env, timed, total *outcome, traceDir string) (map[string]float64, error) {
	tr := newTracer()
	root := tr.root("bench "+w.name(), "seed", fmt.Sprint(e.seed), "seconds", fmt.Sprint(e.seconds))
	sp := root.child("setup " + w.name())
	s, err := w.setup(ctx, e)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name(), err)
	}
	sp = root.child("measure " + w.name())
	again, err := s.measure(ctx, sp)
	sp.end()
	sp = root.child("close " + w.name())
	s.close()
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name(), err)
	}
	total.add(again)
	if again.digest != timed.digest {
		total.problemf("traced measurement digest %s differs from the timed one %s", again.digest, timed.digest)
	}

	layers, probed, err := probe(ctx, e, root)
	if err != nil {
		return nil, fmt.Errorf("layer probe: %w", err)
	}
	total.add(probed)
	for k, v := range timed.layers {
		layers[k] = v
	}
	layers["bench.trace_overhead"] = ratio(again.wall, timed.wall)
	root.end()
	layers["bench.trace_self_share"] = tr.selfShare()

	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, err
		}
		if err := tr.write(traceDir, w.name()); err != nil {
			return nil, err
		}
		if err := writeJSON(filepath.Join(traceDir, w.name()+".layers.json"), values(perLayer, layers)); err != nil {
			return nil, err
		}
	}
	return layers, nil
}

// printReport prints every metric as "name value unit", then the summary
// line that tools read.
func printReport(w io.Writer, rep report, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line, err := json.Marshal(summary{Correct: rep.Correct, Attempted: rep.Ops, Failed: rep.Failed, Metrics: rep.Metrics})
	if err != nil {
		return fmt.Errorf("encoding the summary: %w", err)
	}
	fmt.Fprintf(w, "workload %s seed %d gomaxprocs %d\n", rep.Workload, rep.Seed, rep.GOMAXPROCS)
	for _, d := range defs {
		fmt.Fprintf(w, "%-28s %.6g %s\n", d.name, rep.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(w, "%-28s %d\n%-28s %d\n%-28s %s\n", "ops", rep.Ops, "failed", rep.Failed, "digest", rep.Digest)
	for _, p := range rep.Problems {
		fmt.Fprintln(w, "problem:", p)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runAll runs every workload in its own process, so each one's peak RSS
// is its own, and returns the exit code.
func runAll(seed uint64, seconds, traced int, traceDir, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(tmpRoot(), "all-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	code := 0
	var reps []report
	for _, w := range workloads {
		part := filepath.Join(tmp, w.name()+".json")
		cmd := exec.Command(self, "-workload", w.name(), "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(traced), "-trace-dir", traceDir, "-out", part)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				fmt.Fprintln(os.Stderr, "bench:", err)
			}
			code = 1
		}
		blob, err := os.ReadFile(part)
		if err != nil {
			continue // the child failed before writing; its stderr says why
		}
		var rep report
		if err := json.Unmarshal(blob, &rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
			continue
		}
		reps = append(reps, rep)
	}
	if out != "" {
		if err := writeJSON(out, reps); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
