package sample

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"timekeeping/internal/cpu"
	"timekeeping/internal/hier"
	"timekeeping/internal/trace"
)

// segmentedRig extends testRig with the segment hook: every segment gets
// a fresh cold CPU/hierarchy instance, and replays a copy of the stream
// taken at its fork.
func segmentedRig(blocks uint64, segWindows int) Config {
	cfg := testRig(&strideStream{blocks: blocks})
	cfg.Policy.SegmentWindows = segWindows
	cfg.NewInstance = func(seg int) (Instance, error) {
		h := hier.New(hier.DefaultConfig())
		return Instance{Machine: Reference{CPU: cpu.New(cpu.DefaultConfig(), h), Hier: h}}, nil
	}
	return cfg
}

func TestSampleSegmentedSchedule(t *testing.T) {
	// 16-window budget split into 4 segments of 4 windows.
	cfg := segmentedRig(4096, 4)
	out, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := out.Estimate
	if e.Windows != 16 {
		t.Fatalf("windows = %d, want 16", e.Windows)
	}
	if want := uint64(16 * 256); out.CPU.Refs != want {
		t.Fatalf("pooled refs = %d, want %d", out.CPU.Refs, want)
	}
	if out.Hier.Accesses != out.CPU.Refs {
		t.Fatalf("hier accesses %d != cpu refs %d", out.Hier.Accesses, out.CPU.Refs)
	}
	if want := uint64(16 * (256 + 64)); e.DetailedRefs != want {
		t.Fatalf("detailed refs = %d, want %d", e.DetailedRefs, want)
	}
	// Every segment re-warms WarmupRefs, and a warming span follows every
	// window except each segment's last: 4x2048 + (16-4)x1024.
	if want := uint64(4*2048 + 12*1024); e.WarmRefs != want {
		t.Fatalf("warm refs = %d, want %d", e.WarmRefs, want)
	}
	if out.TotalRefs != e.WarmRefs+e.DetailedRefs {
		t.Fatalf("TotalRefs %d != warm %d + detailed %d", out.TotalRefs, e.WarmRefs, e.DetailedRefs)
	}
	if e.IPC.Mean <= 0 || e.IPC.N != 16 {
		t.Fatalf("IPC stat = %+v", e.IPC)
	}
}

// TestSampleSegmentedUnevenLastSegment: a window cap that does not divide
// SegmentWindows leaves a short trailing segment.
func TestSampleSegmentedUnevenLastSegment(t *testing.T) {
	cfg := segmentedRig(4096, 4)
	cfg.Policy.MaxWindows = 10 // segments of 4, 4, 2
	out, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Estimate.Windows != 10 {
		t.Fatalf("windows = %d, want 10", out.Estimate.Windows)
	}
	if want := uint64(3*2048 + 7*1024); out.Estimate.WarmRefs != want {
		t.Fatalf("warm refs = %d, want %d (3 segment warm-ups + 7 spans)", out.Estimate.WarmRefs, want)
	}
}

// TestSampleSegmentedIdenticalAcrossParallelism is the core determinism
// property: at a fixed SegmentWindows the entire Outcome is bit-identical
// at every Parallelism level.
func TestSampleSegmentedIdenticalAcrossParallelism(t *testing.T) {
	var base Outcome
	for i, par := range []int{0, 1, 2, 4, 8} {
		cfg := segmentedRig(4096, 4)
		cfg.Policy.Parallelism = par
		out, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if i == 0 {
			base = out
			continue
		}
		if !reflect.DeepEqual(out, base) {
			t.Fatalf("parallelism %d diverges from sequential:\n%+v\nvs\n%+v", par, out, base)
		}
	}
	if base.Estimate.Windows == 0 {
		t.Fatal("no windows measured")
	}
}

// TestSampleSegmentedPermutation forces an adversarial completion order —
// segments publish strictly in reverse — and asserts the Outcome is still
// bit-identical to the sequential run.
func TestSampleSegmentedPermutation(t *testing.T) {
	seq := segmentedRig(4096, 4)
	want, err := Run(context.Background(), seq)
	if err != nil {
		t.Fatal(err)
	}

	cfg := segmentedRig(4096, 4)
	cfg.Policy.Parallelism = 4 // one worker per segment, so holds cannot deadlock
	var (
		mu    sync.Mutex
		cond  = sync.NewCond(&mu)
		next  = 3 // publish order 3, 2, 1, 0
		order []int
	)
	cfg.testSegmentDone = func(seg int) {
		mu.Lock()
		for seg != next {
			cond.Wait()
		}
		order = append(order, seg)
		next--
		cond.Broadcast()
		mu.Unlock()
	}
	got, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wantOrder := []int{3, 2, 1, 0}; !reflect.DeepEqual(order, wantOrder) {
		t.Fatalf("completion order = %v, want %v", order, wantOrder)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reverse completion order changed the outcome:\n%+v\nvs\n%+v", got, want)
	}
}

func TestSampleSegmentedMissingHooks(t *testing.T) {
	cfg := testRig(&strideStream{blocks: 4096})
	cfg.Policy.SegmentWindows = 4
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("segmented run without hooks accepted")
	}
}

// TestSampleSegmentedRequiresCopyableStream: every segment replays a copy
// of the stream, so a stream that cannot be copied is rejected before any
// segment instance is built.
func TestSampleSegmentedRequiresCopyableStream(t *testing.T) {
	cfg := segmentedRig(4096, 4)
	cfg.Stream = struct{ trace.Stream }{cfg.Stream}
	built := 0
	inner := cfg.NewInstance
	cfg.NewInstance = func(seg int) (Instance, error) {
		built++
		return inner(seg)
	}
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("segmented run over a stream that cannot be copied accepted")
	}
	if built != 0 {
		t.Fatalf("rejected run built %d segment instances", built)
	}
}

// cancelAt is a stream that cancels its context when it reaches
// reference at. Its copies do not, so only the walk that forks the
// segments can cancel.
type cancelAt struct {
	strideStream
	at     uint64
	cancel context.CancelFunc
}

func (s *cancelAt) Next(r *trace.Ref) bool {
	if s.i == s.at {
		s.cancel()
	}
	return s.strideStream.Next(r)
}

// TestSampleSegmentedCancelStopsDispatch: once the context is done, the
// fork walk stops within forkCheckEvery references, hands out no further
// segment, and the run returns the context's error — whether the context
// was cancelled before the run or during the walk.
func TestSampleSegmentedCancelStopsDispatch(t *testing.T) {
	const stride = 8 * 1344 // eight windows per segment, more than forkCheckEvery
	for _, at := range []uint64{0, stride + 5} {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := segmentedRig(4096, 8)
		cfg.Policy.MaxWindows = 32 // four segments
		walk := &cancelAt{strideStream: strideStream{blocks: 4096}, at: at, cancel: cancel}
		cfg.Stream = walk
		if at == 0 {
			cancel()
		}
		var mu sync.Mutex
		var segs []int
		inner := cfg.NewInstance
		cfg.NewInstance = func(seg int) (Instance, error) {
			mu.Lock()
			segs = append(segs, seg)
			mu.Unlock()
			return inner(seg)
		}
		_, err := Run(ctx, cfg)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at ref %d: err = %v, want context.Canceled", at, err)
		}
		// The walk reaches ref stride+5 on its way to segment 2's fork.
		want := []int(nil)
		if at > 0 {
			want = []int{0, 1}
		}
		if !reflect.DeepEqual(segs, want) {
			t.Fatalf("cancel at ref %d: dispatched segments %v, want %v", at, segs, want)
		}
		if at > 0 && walk.i >= 2*stride {
			t.Fatalf("cancel at ref %d: the walk went on to ref %d, past the next fork", at, walk.i)
		}
		cancel()
	}
}

// TestSampleSegmentedStreamEndsBeforeFirstWindow: when every segment's
// fork is past the stream end (or warm-up exhausts it), the run reports
// ErrNoWindows rather than an empty estimate.
func TestSampleSegmentedStreamEndsBeforeFirstWindow(t *testing.T) {
	refs := trace.Collect(&strideStream{blocks: 64}, 1000)
	cfg := segmentedRig(64, 4)
	cfg.Stream = &trace.SliceStream{Refs: refs}
	_, err := Run(context.Background(), cfg)
	if !errors.Is(err, ErrNoWindows) {
		t.Fatalf("err = %v, want ErrNoWindows", err)
	}
}

// TestSampleSegmentedShortStreamKeepsMeasuredWindows: segments past the
// stream end contribute nothing, but the windows earlier segments did
// measure survive.
func TestSampleSegmentedShortStreamKeepsMeasuredWindows(t *testing.T) {
	// Enough stream for segment 0's warm-up and two periods; segments 1+
	// fork at offsets past the end.
	refs := trace.Collect(&strideStream{blocks: 4096}, 2048+2*(64+256+1024)+100)
	cfg := segmentedRig(4096, 4)
	cfg.Stream = &trace.SliceStream{Refs: refs}
	out, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Estimate.Windows < 2 {
		t.Fatalf("windows = %d, want >= 2", out.Estimate.Windows)
	}
}

// TestSampleSegmentedSegmentError: a failing instance factory surfaces as
// a run error, reported deterministically (lowest failing segment).
func TestSampleSegmentedSegmentError(t *testing.T) {
	cfg := segmentedRig(4096, 4)
	inner := cfg.NewInstance
	cfg.NewInstance = func(seg int) (Instance, error) {
		if seg >= 2 {
			return Instance{}, fmt.Errorf("boom %d", seg)
		}
		return inner(seg)
	}
	cfg.Policy.Parallelism = 4
	_, err := Run(context.Background(), cfg)
	if err == nil || err.Error() != "sample: segment 2 instance: boom 2" {
		t.Fatalf("err = %v, want deterministic lowest-segment error", err)
	}
}

// TestSampleSegmentedWarmablesPerInstance: segment warmables toggle around
// that segment's windows only, and end enabled.
func TestSampleSegmentedWarmablesPerInstance(t *testing.T) {
	var mu sync.Mutex
	recs := map[int]*toggleRecorder{}
	cfg := segmentedRig(4096, 4)
	cfg.Policy.MaxWindows = 8 // 2 segments
	inner := cfg.NewInstance
	cfg.NewInstance = func(seg int) (Instance, error) {
		inst, err := inner(seg)
		if err != nil {
			return inst, err
		}
		rec := &toggleRecorder{}
		mu.Lock()
		recs[seg] = rec
		mu.Unlock()
		inst.Warmables = append(inst.Warmables, rec)
		return inst, nil
	}
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("instances = %d, want 2", len(recs))
	}
	// Per segment: off (init), on/off around each of 4 windows, final on.
	want := []bool{false, true, false, true, false, true, false, true, false, true}
	for seg, rec := range recs {
		if !reflect.DeepEqual(rec.seq, want) {
			t.Fatalf("segment %d toggle sequence %v, want %v", seg, rec.seq, want)
		}
	}
}

// TestSampleWindowCap: Run rejects a window count above MaxWindowCount,
// explicit or derived from MeasureRefs, before a schedule allocates
// per-window state. Admitted, the first two runs would allocate 2^40
// segment slots.
func TestSampleWindowCap(t *testing.T) {
	huge := segmentedRig(4096, 1)
	huge.Policy = Policy{DetailedRefs: 1, WarmRefs: 1, SegmentWindows: 1, MaxWindows: 1 << 40}
	derived := segmentedRig(4096, 1)
	derived.Policy = Policy{DetailedRefs: 1, WarmRefs: 1, SegmentWindows: 1}
	derived.MeasureRefs = 1 << 41
	classic := testRig(&strideStream{blocks: 4096})
	classic.Policy = Policy{DetailedRefs: 1, WarmRefs: 1}
	classic.MeasureRefs = 2 * (65536 + 1)
	// 20000 periods are within the cap, but a CI target may take four
	// times as many windows.
	target := testRig(&strideStream{blocks: 4096})
	target.Policy = Policy{DetailedRefs: 1, WarmRefs: 1, TargetRelCI: 0.01}
	target.MeasureRefs = 2 * 20000
	for i, cfg := range []Config{huge, derived, classic, target} {
		if _, err := Run(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "out of range [1, 65536]") {
			t.Fatalf("case %d: err = %v, want the window range", i, err)
		}
	}
}
