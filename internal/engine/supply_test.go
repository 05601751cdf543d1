package engine

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"timekeeping/internal/cache"
	"timekeeping/internal/core"
	"timekeeping/internal/cpu"
	"timekeeping/internal/decay"
	"timekeeping/internal/hier"
	"timekeeping/internal/obs"
	"timekeeping/internal/prefetch"
	"timekeeping/internal/trace"
	"timekeeping/internal/victim"
	"timekeeping/internal/workload"
)

// countStream yields a workload's references and counts them. It ends
// after end references when end is nonzero; its Next panics with
// errBrokenStream on reference panicAt, and calls runtime.Goexit on
// reference exitAt, when those are nonzero. aside records whether Next
// ran on a goroutine other than the one that made the stream, checked
// once a chunk: whether a producer served the calls.
type countStream struct {
	s       trace.Stream
	yielded uint64
	end     uint64
	panicAt uint64
	exitAt  uint64
	maker   uint64
	aside   bool
}

var errBrokenStream = errors.New("stream broke")

func newCountStream(bench string) *countStream {
	spec := workload.MustProfile(bench)
	return &countStream{s: spec.Stream(1), maker: goid()}
}

func (c *countStream) Next(r *trace.Ref) bool {
	if c.yielded%chunkRefs == 0 && goid() != c.maker {
		c.aside = true
	}
	if c.end != 0 && c.yielded == c.end {
		return false
	}
	if c.panicAt != 0 && c.yielded+1 == c.panicAt {
		panic(errBrokenStream)
	}
	if c.exitAt != 0 && c.yielded+1 == c.exitAt {
		runtime.Goexit()
	}
	if !c.s.Next(r) {
		return false
	}
	c.yielded++
	return true
}

// call steps n references of s through e's detailed or functional path.
func call(ctx context.Context, e *Engine, s trace.Stream, n uint64, functional bool) (cpu.Result, error) {
	if functional {
		return e.RunFunctional(ctx, s, n, 2.5)
	}
	return e.Run(ctx, s, n)
}

// goid returns the calling goroutine's ID, read off its stack header.
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, err := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// freeCore makes sure a long call in t finds a P free for its producer:
// it raises GOMAXPROCS to two for t when it is lower, and fails t if an
// engine call or producer is still counted busy.
func freeCore(t *testing.T) {
	t.Helper()
	if runtime.GOMAXPROCS(0) < 2 {
		prev := runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	if b := busy.Load(); b != 0 {
		t.Fatalf("%d engine calls and producers counted busy before the test, want 0", b)
	}
}

// inline runs f with every P counted busy, so a long call in f reads its
// stream inline.
func inline(f func()) {
	others := int32(runtime.GOMAXPROCS(0))
	busy.Add(others)
	defer busy.Add(-others)
	f()
}

// settleGoroutines fails t unless the goroutine count falls back to want
// within a second, and every busy count has been given back: a producer
// that outlives its call keeps both higher.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the call, %d before it", runtime.NumGoroutine(), want)
		}
	}
	if b := busy.Load(); b != 0 {
		t.Fatalf("%d engine calls and producers still counted busy after the call", b)
	}
}

// TestSupplyReadsExactlyN: a long call, detailed or functional, reads
// exactly its n references from the stream on its producer, whether n
// fills its last chunk or not, and a stream shorter than n ends the call
// at its end, mid-chunk or on a chunk boundary.
func TestSupplyReadsExactlyN(t *testing.T) {
	freeCore(t)
	cfg := Config{Hier: hier.DefaultConfig(), CPU: cpu.DefaultConfig()}
	for _, functional := range []bool{false, true} {
		for _, n := range []uint64{supplyMinRefs, supplyMinRefs + 1, 32 * chunkRefs, 100_003} {
			s := newCountStream("gcc")
			res, err := call(context.Background(), New(cfg), s, n, functional)
			if err != nil {
				t.Fatal(err)
			}
			if s.yielded != n || res.Refs != n || !s.aside {
				t.Errorf("functional %v, n %d: the stream yielded %d references and the call stepped %d (read by a producer: %v)",
					functional, n, s.yielded, res.Refs, s.aside)
			}
		}
		for _, end := range []uint64{supplyMinRefs + 5000, 20 * chunkRefs} {
			s := newCountStream("gcc")
			s.end = end
			res, err := call(context.Background(), New(cfg), s, 100_000, functional)
			if err != nil {
				t.Fatal(err)
			}
			if s.yielded != end || res.Refs != end || !s.aside {
				t.Errorf("functional %v, stream of %d: it yielded %d references and the call stepped %d (read by a producer: %v)",
					functional, end, s.yielded, res.Refs, s.aside)
			}
		}
	}
}

// supplyRig is an engine with every mechanism attached.
type supplyRig struct {
	e   *Engine
	tr  *core.FastTracker
	vc  *victim.Cache
	dec *decay.Sim
	tk  *prefetch.Timekeeping
}

func newSupplyRig() supplyRig {
	e := New(Config{Hier: hier.DefaultConfig(), CPU: cpu.DefaultConfig()})
	r := supplyRig{
		e:   e,
		tr:  core.NewFastTracker(e.NumFrames()),
		vc:  victim.New(32, victim.NewDecayFilter()),
		dec: decay.New(e.NumFrames(), decay.DefaultIntervals),
		tk:  prefetch.NewTimekeeping(prefetch.DefaultConfig(), core.NewCorrTable(core.DefaultCorrConfig()), e.L1()),
	}
	e.AttachTracker(r.tr)
	e.AttachVictim(r.vc)
	e.AttachDecay(r.dec)
	e.AttachTimekeeping(r.tk)
	return r
}

// supplyOutcome is everything a run reports.
type supplyOutcome struct {
	Snap    cpu.Result
	Hier    hier.Stats
	Tracker *core.Metrics
	Victim  victim.Stats
	Decay   []decay.Result
	PFTime  prefetch.Timeliness
	PFInfo  [2]uint64
}

func (r supplyRig) outcome() supplyOutcome {
	return supplyOutcome{
		Snap:    r.e.Snapshot(),
		Hier:    r.e.Stats(),
		Tracker: r.tr.Metrics(),
		Victim:  r.vc.Stats(),
		Decay:   r.dec.Results(),
		PFTime:  r.tk.Timeliness(),
		PFInfo:  [2]uint64{r.tk.Issued(), r.tk.Scheduled()},
	}
}

// TestSupplyMatchesShortCalls: long calls, with a short one between them,
// give the same snapshot, hierarchy stats, tracker metrics and victim,
// decay and prefetch tallies as the same references stepped in calls
// below supplyMinRefs, which read inline. Each long call must leave the
// stream exactly where its references end, or the calls after it step
// other references.
func TestSupplyMatchesShortCalls(t *testing.T) {
	freeCore(t)
	lengths := []uint64{3*supplyMinRefs + 777, 3000, 2*supplyMinRefs + 5}
	for _, functional := range []bool{false, true} {
		long, short := newSupplyRig(), newSupplyRig()
		sl, ss := newCountStream("twolf"), newCountStream("twolf")
		var total uint64
		for _, n := range lengths {
			if _, err := call(context.Background(), long.e, sl, n, functional); err != nil {
				t.Fatal(err)
			}
			for left := n; left > 0; {
				k := min(left, supplyMinRefs-1)
				if _, err := call(context.Background(), short.e, ss, k, functional); err != nil {
					t.Fatal(err)
				}
				left -= k
			}
			total += n
		}
		if sl.yielded != total || ss.yielded != total {
			t.Fatalf("functional %v: the streams yielded %d and %d references, want %d", functional, sl.yielded, ss.yielded, total)
		}
		if !sl.aside || ss.aside {
			t.Fatalf("functional %v: a producer read the long calls' stream: %v, the short calls' stream: %v", functional, sl.aside, ss.aside)
		}
		if got, want := long.outcome(), short.outcome(); !reflect.DeepEqual(got, want) {
			t.Errorf("functional %v: long calls differ from short ones\nlong:  %+v\nshort: %+v", functional, got, want)
		}
	}
}

// cancelAuditor cancels its context on the at-th demand reference. It
// runs on the stepping goroutine, so the cancel lands at one exact
// reference whichever goroutine reads the stream.
type cancelAuditor struct {
	at, refs uint64
	cancel   context.CancelFunc
}

func (a *cancelAuditor) AuditDemand(*hier.AccessEvent, *hier.L2Op) {
	if a.refs++; a.refs == a.at {
		a.cancel()
	}
}
func (a *cancelAuditor) AuditPrefetchIssue(uint64, *hier.L2Op)                {}
func (a *cancelAuditor) AuditPrefetchFill(uint64, uint64, bool, cache.Victim) {}

// TestSupplyCancel: a call cancelled mid-batch returns the context's error
// at the next batch boundary, with the progress count and snapshot at
// that boundary, whether it reads inline or from the supply; a call whose
// context is done before it starts steps nothing. Either way no goroutine
// outlives the call, and the stream has yielded no more than the call's
// references.
func TestSupplyCancel(t *testing.T) {
	freeCore(t)
	cfg := Config{Hier: hier.DefaultConfig(), CPU: cpu.DefaultConfig()}
	const at = 5000
	for _, n := range []uint64{supplyMinRefs - 1, 100_000} {
		start := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		e := New(cfg)
		prog := &obs.Progress{}
		e.SetProgress(prog)
		e.SetAuditor(&cancelAuditor{at: at, cancel: cancel})
		s := newCountStream("mcf")
		res, err := e.Run(ctx, s, n)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("n %d: err = %v, want context.Canceled", n, err)
		}
		const boundary = 2 * batchRefs // the first batch boundary after reference 5000
		if res.Refs != boundary || prog.Done() != boundary {
			t.Errorf("n %d: cancelled call stopped at %d references with progress %d, want both %d",
				n, res.Refs, prog.Done(), boundary)
		}
		settleGoroutines(t, start)
		if s.yielded > n || s.yielded < res.Refs {
			t.Errorf("n %d: the stream yielded %d references for a call that stepped %d", n, s.yielded, res.Refs)
		}
		if s.aside != (n >= supplyMinRefs) {
			t.Errorf("n %d: a producer read the stream: %v", n, s.aside)
		}
	}
	for _, functional := range []bool{false, true} {
		start := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := call(ctx, New(cfg), newCountStream("mcf"), 100_000, functional)
		if !errors.Is(err, context.Canceled) || res.Refs != 0 {
			t.Errorf("functional %v: a call cancelled before it started returned %v after %d references", functional, err, res.Refs)
		}
		settleGoroutines(t, start)
	}
}

// TestSupplyNextPanic: a panic in the stream's Next, which runs on the
// producer goroutine, resurfaces on the caller's goroutine with the same
// value, after the same references as an inline read steps: those of the
// sub-batches before the one whose read broke. The producer's stack is
// printed first, the producer is gone afterwards, and the next long call,
// which takes the same pooled supply, runs normally.
func TestSupplyNextPanic(t *testing.T) {
	freeCore(t)
	cfg := Config{Hier: hier.DefaultConfig(), CPU: cpu.DefaultConfig()}
	start := runtime.NumGoroutine()
	const panicAt = 20_000
	broken := func() (got any, stepped uint64, aside bool) {
		e := New(cfg)
		s := newCountStream("vpr")
		s.panicAt = panicAt
		defer func() { got, stepped, aside = recover(), e.Snapshot().Refs, s.aside }()
		_, _ = e.Run(context.Background(), s, 100_000)
		return
	}
	var inlineGot any
	var inlineStepped uint64
	inline(func() { inlineGot, inlineStepped, _ = broken() })

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	got, stepped, aside := broken()
	os.Stderr = stderr
	w.Close()
	printed, _ := io.ReadAll(r)
	r.Close()

	if got != errBrokenStream || inlineGot != errBrokenStream || !aside {
		t.Fatalf("recovered %v from the supplied call (read by a producer: %v) and %v from the inline one, want the stream's panic %v",
			got, aside, inlineGot, errBrokenStream)
	}
	if want := uint64(panicAt - 1 - (panicAt-1)%touchBatch); stepped != want || inlineStepped != want {
		t.Errorf("the supplied call stepped %d references before the panic and the inline one %d, want %d",
			stepped, inlineStepped, want)
	}
	if !bytes.Contains(printed, []byte("(*countStream).Next")) {
		t.Errorf("printed %q before re-raising, want the producer's stack through countStream.Next", printed)
	}
	settleGoroutines(t, start)

	fresh := newCountStream("vpr")
	res, err := New(cfg).Run(context.Background(), fresh, 100_000)
	if err != nil || res.Refs != 100_000 || fresh.yielded != 100_000 {
		t.Fatalf("the call after the panic stepped %d references of a stream that yielded %d (err %v), want 100000",
			res.Refs, fresh.yielded, err)
	}
	settleGoroutines(t, start)
}

// TestSupplyNextGoexit: a Next that ends its goroutine with runtime.Goexit,
// as t.FailNow does, ends the caller's goroutine when it runs on the
// producer, as it does inline, rather than leaving the call waiting for a
// chunk that never comes.
func TestSupplyNextGoexit(t *testing.T) {
	freeCore(t)
	cfg := Config{Hier: hier.DefaultConfig(), CPU: cpu.DefaultConfig()}
	start := runtime.NumGoroutine()
	ended := make(chan bool)
	var s *countStream
	go func() {
		returned := false
		defer func() { ended <- returned }()
		s = newCountStream("vpr")
		s.exitAt = 20_000
		_, _ = New(cfg).Run(context.Background(), s, 100_000)
		returned = true
	}()
	select {
	case returned := <-ended:
		if returned {
			t.Fatal("Run returned after Next called runtime.Goexit")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the call still waits 10 s after Next called runtime.Goexit")
	}
	if !s.aside {
		t.Fatal("the stream was read inline, not by a producer")
	}
	settleGoroutines(t, start)
}

// TestSupplyNeedsFreeCore: a long call starts a producer only while a P is
// free for it. It reads inline when as many other engine calls and
// producers are counted busy as there are Ps, or at GOMAXPROCS=1, and
// gives back what it counted when it returns.
func TestSupplyNeedsFreeCore(t *testing.T) {
	freeCore(t)
	cfg := Config{Hier: hier.DefaultConfig(), CPU: cpu.DefaultConfig()}
	supplied := func(others int32) bool {
		busy.Add(others)
		defer busy.Add(-others)
		s := newCountStream("eon")
		if _, err := New(cfg).Run(context.Background(), s, 2*supplyMinRefs); err != nil {
			t.Fatal(err)
		}
		return s.aside
	}
	procs := int32(runtime.GOMAXPROCS(0))
	if !supplied(procs - 2) {
		t.Errorf("with %d of %d Ps busy before the call, it read inline", procs-2, procs)
	}
	if supplied(procs - 1) {
		t.Errorf("with %d of %d Ps busy before the call, a producer read its stream", procs-1, procs)
	}
	prev := runtime.GOMAXPROCS(1)
	one := supplied(0)
	runtime.GOMAXPROCS(prev)
	if one {
		t.Error("at GOMAXPROCS=1 a producer read the stream")
	}
	if b := busy.Load(); b != 0 {
		t.Errorf("%d engine calls and producers still counted busy after the calls", b)
	}
}

// TestSupplyConcurrentCalls: long calls on several engines at once, more
// of them than there are Ps, each step exactly their own references,
// whether they won a producer or read inline, and the busy count comes
// back to zero. Run it under -race.
func TestSupplyConcurrentCalls(t *testing.T) {
	freeCore(t)
	cfg := Config{Hier: hier.DefaultConfig(), CPU: cpu.DefaultConfig()}
	benches := []string{"gcc", "mcf", "twolf", "eon"}
	const n = 3*supplyMinRefs + 100
	want := make([]cpu.Result, len(benches))
	inline(func() {
		for i, b := range benches {
			res, err := New(cfg).Run(context.Background(), newCountStream(b), n)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = res
		}
	})
	start := runtime.NumGoroutine()
	got := make([]cpu.Result, len(benches))
	errs := make([]error, len(benches))
	var wg sync.WaitGroup
	for i, b := range benches {
		wg.Add(1)
		go func(i int, b string) {
			defer wg.Done()
			got[i], errs[i] = New(cfg).Run(context.Background(), newCountStream(b), n)
		}(i, b)
	}
	wg.Wait()
	for i, b := range benches {
		if errs[i] != nil || got[i] != want[i] {
			t.Errorf("%s: concurrent call returned %+v (err %v), alone and inline %+v", b, got[i], errs[i], want[i])
		}
	}
	settleGoroutines(t, start)
}
