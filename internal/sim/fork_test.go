package sim_test

// Tests for the sampled schedules' stream forks: the phase schedule
// profiles a copy of the run's stream, and the segmented schedule hands
// every segment a copy taken from one walk over it.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"timekeeping/internal/sample"
	"timekeeping/internal/sim"
	"timekeeping/internal/trace"
	"timekeeping/internal/workload"
)

// encodedTrace returns a trace.Reader over the first n references of the
// named profile's stream: an explicit stream that cannot be copied.
func encodedTrace(t *testing.T, bench string, n int) *trace.Reader {
	t.Helper()
	spec := workload.MustProfile(bench)
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range trace.Collect(spec.Stream(1), n) {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

// checkRejectedUnread runs opt over a trace.Reader, requires the run to be
// rejected, and requires the reader to be untouched: the rejection comes
// before anything runs.
func checkRejectedUnread(t *testing.T, opt sim.Options) {
	t.Helper()
	rd := encodedTrace(t, "gcc", 1000)
	if _, err := sim.Run(context.Background(), sim.Spec{Name: "explicit", Stream: rd, Opts: opt}); err == nil {
		t.Fatal("run over a stream that cannot be copied accepted")
	}
	spec := workload.MustProfile("gcc")
	var got, first trace.Ref
	spec.Stream(1).Next(&first)
	if !rd.Next(&got) || got != first {
		t.Fatalf("rejected run consumed the stream: next ref %+v, want %+v", got, first)
	}
}

// TestSampledParallelExplicitStreams: an explicit stream that can be
// copied — a SliceStream of collected references, or the profile's own
// stream — runs the phase schedule and the segmented schedule at one and
// two workers to the byte-identical Result of the workload-backed run,
// with and without the software-prefetch filter.
func TestSampledParallelExplicitStreams(t *testing.T) {
	schedules := map[string]func(*sample.Policy){
		"phase":        func(p *sample.Policy) { p.Schedule, p.SegmentWindows = sample.SchedulePhase, 0 },
		"segmented/1w": func(p *sample.Policy) { p.SegmentWindows, p.Parallelism = 2, 1 },
		"segmented/2w": func(p *sample.Policy) { p.SegmentWindows, p.Parallelism = 2, 2 },
	}
	for _, bench := range []string{"gcc", "swim"} {
		spec := workload.MustProfile(bench)
		for name, tune := range schedules {
			opt := parallelOptions("base", 0)
			opt.DropSWPrefetch = bench == "swim"
			tune(opt.Sampling)
			want, err := sim.Run(context.Background(), sim.Spec{Workload: spec, Opts: opt})
			if err != nil {
				t.Fatalf("%s %s: %v", bench, name, err)
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			// Enough references for every schedule's extent: warm-up,
			// the measure span and more than a period to spare.
			n := int(opt.WarmupRefs + opt.MeasureRefs + 4*32768)
			streams := map[string]trace.Stream{
				"slice":    &trace.SliceStream{Refs: trace.Collect(spec.Stream(opt.Seed), n)},
				"workload": spec.Stream(opt.Seed),
			}
			for kind, s := range streams {
				got, err := sim.Run(context.Background(), sim.Spec{Name: bench, Stream: s, Opts: opt})
				if err != nil {
					t.Fatalf("%s %s over the %s stream: %v", bench, name, kind, err)
				}
				gotJSON, err := json.Marshal(got)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotJSON, wantJSON) {
					t.Errorf("%s %s over the %s stream differs from the workload-backed run:\n%s\nvs\n%s", bench, name, kind, gotJSON, wantJSON)
				}
			}
		}
	}
}

// countingStream counts every reference it and its copies generate.
type countingStream struct {
	s trace.Stream
	n *atomic.Uint64
}

func (c *countingStream) Next(r *trace.Ref) bool {
	if !c.s.Next(r) {
		return false
	}
	c.n.Add(1)
	return true
}

// Copy implements trace.Copier; the copy counts into the same total.
func (c *countingStream) Copy() (trace.Stream, bool) {
	s, ok := trace.Copy(c.s)
	if !ok {
		return nil, false
	}
	return &countingStream{s: s, n: c.n}, true
}

// TestSegmentForksGenerateOnePass: at the default run length the
// segmented schedule (four windows per segment, five segments) generates
// what its segments simulate plus one walk to the last fork, 4·4·32768 =
// 524,288 references. Re-deriving each fork from the origin instead would
// generate (1+2+3+4)·4·32768 = 1,310,720. The phase schedule generates
// what it simulates plus its profiling pass.
func TestSegmentForksGenerateOnePass(t *testing.T) {
	spec := workload.MustProfile("eon")
	run := func(tune func(*sample.Policy)) (sim.Result, uint64) {
		t.Helper()
		opt := sim.Default()
		opt.Sampling = sample.DefaultPolicy()
		tune(opt.Sampling)
		var n atomic.Uint64
		res, err := sim.Run(context.Background(), sim.Spec{Name: "eon", Stream: &countingStream{s: spec.Stream(opt.Seed), n: &n}, Opts: opt})
		if err != nil {
			t.Fatal(err)
		}
		return res, n.Load()
	}

	res, generated := run(func(p *sample.Policy) { p.SegmentWindows, p.Parallelism = 4, 2 })
	if want := res.TotalRefs + 524_288; generated != want {
		t.Errorf("segmented run generated %d references, want TotalRefs %d + 524288 = %d", generated, res.TotalRefs, want)
	}

	res, generated = run(func(p *sample.Policy) { p.Schedule = sample.SchedulePhase })
	if want := res.TotalRefs + res.Estimate.Phase.ProfiledRefs; generated != want {
		t.Errorf("phase run generated %d references, want TotalRefs %d + profiled %d = %d",
			generated, res.TotalRefs, res.Estimate.Phase.ProfiledRefs, want)
	}
}

// TestSampledParallelCancelPrompt: a segmented run with many one-window
// segments returns soon after its deadline. The fork walk stops at the
// deadline and dispatches nothing more, and the segments in flight stop
// at their next batch. At 4096 segments the walk alone takes seconds, so
// it must check the context itself. Each case must run uncancelled for
// many times its deadline, or a fast machine finishes it first: the 256
// segments each re-warm 2M references (30 s on a 2-vCPU Xeon at 2
// workers, where the default 150K took 3 s), and the 4096 segments at
// the default warm-up take 45 s.
func TestSampledParallelCancelPrompt(t *testing.T) {
	for _, tc := range []struct {
		segments int
		warmup   uint64
	}{{256, 2_000_000}, {4096, sim.Default().WarmupRefs}} {
		segments := tc.segments
		opt := sim.Default()
		opt.Track = true
		opt.WarmupRefs = tc.warmup
		pol := sample.DefaultPolicy()
		pol.SegmentWindows, pol.Parallelism, pol.MaxWindows = 1, 2, segments
		opt.Sampling = pol
		const deadline = 2 * time.Second
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		start := time.Now()
		_, err := sim.Run(ctx, sim.Spec{Workload: workload.MustProfile("eon"), Opts: opt})
		took := time.Since(start)
		cancel()
		t.Logf("%d segments: returned after %v", segments, took)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%d segments: err = %v, want the deadline", segments, err)
		}
		if took > deadline+time.Second {
			t.Errorf("%d segments: returned after %v, more than 1 s past its %v deadline", segments, took, deadline)
		}
	}
}
