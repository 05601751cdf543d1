package sample

import (
	"context"
	"errors"
	"testing"

	"timekeeping/internal/cpu"
	"timekeeping/internal/hier"
	"timekeeping/internal/trace"
)

// strideStream is an infinite synthetic stream cycling through a working
// set, enough to exercise both hits and misses.
type strideStream struct {
	i      uint64
	blocks uint64
}

func (s *strideStream) Next(r *trace.Ref) bool {
	*r = trace.Ref{
		Addr: (s.i % s.blocks) * 32,
		PC:   uint32(s.i % 7),
		Gap:  3,
		Kind: trace.Load,
	}
	s.i++
	return true
}

func testRig(stream trace.Stream) Config {
	h := hier.New(hier.DefaultConfig())
	return Config{
		Machine: Reference{CPU: cpu.New(cpu.DefaultConfig(), h), Hier: h},
		Stream:  stream,
		Policy:  Policy{DetailedRefs: 256, WarmRefs: 1024, DetailedWarmRefs: 64},

		WarmupRefs:  2048,
		MeasureRefs: 16 * (256 + 1024 + 64),
	}
}

func TestSampleEngineFixedPeriodSchedule(t *testing.T) {
	cfg := testRig(&strideStream{blocks: 4096})
	out, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := out.Estimate
	if e.Windows != 16 {
		t.Fatalf("windows = %d, want 16", e.Windows)
	}
	// The pooled CPU counters cover the measured windows only (the warm
	// prefixes are detailed but excluded from the sample).
	if want := uint64(16 * 256); out.CPU.Refs != want {
		t.Fatalf("pooled refs = %d, want %d", out.CPU.Refs, want)
	}
	if out.Hier.Accesses != out.CPU.Refs {
		t.Fatalf("hier accesses %d != cpu refs %d", out.Hier.Accesses, out.CPU.Refs)
	}
	// est.DetailedRefs counts prefixes too.
	if want := uint64(16 * (256 + 64)); e.DetailedRefs != want {
		t.Fatalf("detailed refs = %d, want %d", e.DetailedRefs, want)
	}
	// Initial warm-up plus 15 inter-window spans.
	if want := uint64(2048 + 15*1024); e.WarmRefs != want {
		t.Fatalf("warm refs = %d, want %d", e.WarmRefs, want)
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
	if e.TargetMet {
		t.Fatal("fixed-period run reported TargetMet")
	}
}

func TestSampleEngineStreamEndsBeforeFirstWindow(t *testing.T) {
	refs := trace.Collect(&strideStream{blocks: 64}, 1000)
	cfg := testRig(&trace.SliceStream{Refs: refs})
	// WarmupRefs (2048) exceeds the stream: no window ever completes.
	_, err := Run(context.Background(), cfg)
	if !errors.Is(err, ErrNoWindows) {
		t.Fatalf("err = %v, want ErrNoWindows", err)
	}
}

func TestSampleEngineShortStreamStillEstimates(t *testing.T) {
	// Enough for warm-up and two full periods, then the stream dries up
	// mid-warming: the engine should keep the windows it measured.
	refs := trace.Collect(&strideStream{blocks: 4096}, 2048+2*(64+256+1024)+100)
	cfg := testRig(&trace.SliceStream{Refs: refs})
	out, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Estimate.Windows < 2 {
		t.Fatalf("windows = %d, want >= 2", out.Estimate.Windows)
	}
}

func TestSampleEngineTargetCIStopsEarly(t *testing.T) {
	cfg := testRig(&strideStream{blocks: 4096})
	// A uniform stream has near-identical windows, so a loose 50% target
	// is met as soon as MinWindows allows.
	cfg.Policy.TargetRelCI = 0.5
	cfg.Policy.MinWindows = 2
	out, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := out.Estimate
	if !e.TargetMet {
		t.Fatalf("TargetMet = false after %d windows (RelCI %v)", e.Windows, e.IPC.RelCI())
	}
	if e.Windows < 2 || e.Windows >= 16 {
		t.Fatalf("windows = %d, want early stop in [2, 16)", e.Windows)
	}
}

// toggleRecorder records the sequence of SetRecording flips.
type toggleRecorder struct{ seq []bool }

func (r *toggleRecorder) SetRecording(on bool) { r.seq = append(r.seq, on) }

func TestSampleEngineWarmablesToggled(t *testing.T) {
	rec := &toggleRecorder{}
	cfg := testRig(&strideStream{blocks: 4096})
	cfg.Policy.MaxWindows = 3
	cfg.Warmables = []Warmable{rec}
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	// off (init), then on/off around each of the 3 windows, then the
	// deferred final on.
	want := []bool{false, true, false, true, false, true, false, true}
	if len(rec.seq) != len(want) {
		t.Fatalf("toggle sequence %v, want %v", rec.seq, want)
	}
	for i := range want {
		if rec.seq[i] != want[i] {
			t.Fatalf("toggle sequence %v, want %v", rec.seq, want)
		}
	}
	if last := rec.seq[len(rec.seq)-1]; !last {
		t.Fatal("recording left off after Run")
	}
}

func TestSampleEngineMaxWindowsCap(t *testing.T) {
	cfg := testRig(&strideStream{blocks: 4096})
	cfg.Policy.MaxWindows = 5
	out, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Estimate.Windows != 5 {
		t.Fatalf("windows = %d, want 5", out.Estimate.Windows)
	}
}
