package simcache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"timekeeping/internal/sim"
)

func TestKeyCanonical(t *testing.T) {
	a := Key("gcc", sim.Default())
	b := Key("gcc", sim.Default())
	if a != b {
		t.Fatal("identical configurations hash differently")
	}
	if Key("mcf", sim.Default()) == a {
		t.Fatal("benchmark not part of the key")
	}
	opt := sim.Default()
	opt.Seed = 7
	if Key("gcc", opt) == a {
		t.Fatal("seed not part of the key")
	}
	opt = sim.Default()
	opt.VictimFilter = sim.VictimDecay
	if Key("gcc", opt) == a {
		t.Fatal("victim filter not part of the key")
	}
}

func TestDoHitAfterMiss(t *testing.T) {
	s := New()
	var calls atomic.Int64
	fn := func(context.Context) (sim.Result, error) {
		calls.Add(1)
		return sim.Result{Bench: "x", TotalRefs: 10}, nil
	}
	res, out, err := s.Do(context.Background(), "k", fn)
	if err != nil || out != Miss || res.Bench != "x" {
		t.Fatalf("cold Do: res=%v outcome=%v err=%v", res, out, err)
	}
	res, out, err = s.Do(context.Background(), "k", fn)
	if err != nil || out != Hit || res.Bench != "x" {
		t.Fatalf("warm Do: res=%v outcome=%v err=%v", res, out, err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Runs != 1 || st.Refs != 10 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConcurrentDoCollapses(t *testing.T) {
	s := New()
	var calls atomic.Int64
	release := make(chan struct{})
	fn := func(context.Context) (sim.Result, error) {
		calls.Add(1)
		<-release
		return sim.Result{Bench: "x"}, nil
	}
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := s.Do(context.Background(), "k", fn); err != nil {
				t.Error(err)
			}
		}()
	}
	// Let every caller attach before the single run finishes.
	for s.Stats().Joined < n-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	st := s.Stats()
	if st.Misses != 1 || st.Joined != n-1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLastWaiterCancelsRun(t *testing.T) {
	s := New()
	stopped := make(chan error, 1)
	fn := func(ctx context.Context) (sim.Result, error) {
		<-ctx.Done()
		stopped <- ctx.Err()
		return sim.Result{}, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for s.Stats().Inflight == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	_, _, err := s.Do(ctx, "k", fn)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do err = %v, want canceled", err)
	}
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("run context never cancelled after last waiter left")
	}
	if st := s.Stats(); st.Runs != 0 || st.Entries != 0 {
		t.Fatalf("cancelled run was recorded: %+v", st)
	}
}

// TestDoRefusesDoneContext: a caller whose context is already done
// starts no flight — neither the tier nor fn is consulted and no counter
// moves — while a stored result still answers it.
func TestDoRefusesDoneContext(t *testing.T) {
	s := New()
	tier := newFakeTier()
	s.SetTier(tier)
	var calls atomic.Int64
	fn := func(context.Context) (sim.Result, error) {
		calls.Add(1)
		return sim.Result{Bench: "x", TotalRefs: 10}, nil
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()

	if _, _, err := s.Do(done, "k", fn); !errors.Is(err, context.Canceled) {
		t.Fatalf("Do err = %v, want canceled", err)
	}
	if st := s.Stats(); st.Misses != 0 || st.Joined != 0 || st.Inflight != 0 {
		t.Fatalf("a done caller touched the flight table: %+v", st)
	}
	if calls.Load() != 0 || tier.gets.Load() != 0 {
		t.Fatalf("a done caller ran fn %d times and probed the tier %d times", calls.Load(), tier.gets.Load())
	}

	if _, out, err := s.Do(context.Background(), "k", fn); err != nil || out != Miss {
		t.Fatalf("live Do: outcome=%v err=%v", out, err)
	}
	res, out, err := s.Do(done, "k", fn)
	if err != nil || out != Hit || res.Bench != "x" {
		t.Fatalf("done Do on a stored key: res=%+v outcome=%v err=%v", res, out, err)
	}
}

func TestSurvivingWaiterKeepsRunAlive(t *testing.T) {
	s := New()
	release := make(chan struct{})
	fn := func(ctx context.Context) (sim.Result, error) {
		select {
		case <-ctx.Done():
			return sim.Result{}, ctx.Err()
		case <-release:
			return sim.Result{Bench: "x"}, nil
		}
	}
	first, firstCancel := context.WithCancel(context.Background())
	firstErr := make(chan error, 1)
	go func() {
		_, _, err := s.Do(first, "k", fn)
		firstErr <- err
	}()
	for s.Stats().Inflight == 0 {
		time.Sleep(time.Millisecond)
	}
	secondDone := make(chan sim.Result, 1)
	go func() {
		res, _, err := s.Do(context.Background(), "k", fn)
		if err != nil {
			t.Error(err)
		}
		secondDone <- res
	}()
	for s.Stats().Joined == 0 {
		time.Sleep(time.Millisecond)
	}
	firstCancel()
	if err := <-firstErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("first waiter err = %v", err)
	}
	// The run must still be live for the second waiter.
	close(release)
	res := <-secondDone
	if res.Bench != "x" {
		t.Fatalf("second waiter got %+v", res)
	}
	if st := s.Stats(); st.Runs != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	s := New()
	boom := errors.New("boom")
	var calls atomic.Int64
	_, _, err := s.Do(context.Background(), "k", func(context.Context) (sim.Result, error) {
		calls.Add(1)
		return sim.Result{}, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	_, out, err := s.Do(context.Background(), "k", func(context.Context) (sim.Result, error) {
		calls.Add(1)
		return sim.Result{Bench: "ok"}, nil
	})
	if err != nil || out != Miss {
		t.Fatalf("retry outcome=%v err=%v", out, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("fn ran %d times, want 2", calls.Load())
	}
}

// fakeTier is an in-memory Tier with controllable behaviour.
type fakeTier struct {
	mu   sync.Mutex
	m    map[string]sim.Result
	gets atomic.Int64
	puts atomic.Int64
}

func newFakeTier() *fakeTier { return &fakeTier{m: make(map[string]sim.Result)} }

func (f *fakeTier) Get(key string) (sim.Result, bool) {
	f.gets.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	res, ok := f.m[key]
	return res, ok
}

func (f *fakeTier) Put(key string, res sim.Result) error {
	f.puts.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.m[key] = res
	return nil
}

func TestTierWriteThrough(t *testing.T) {
	s := New()
	tier := newFakeTier()
	s.SetTier(tier)

	res, out, err := s.Do(context.Background(), "k", func(context.Context) (sim.Result, error) {
		return sim.Result{Bench: "x", TotalRefs: 10}, nil
	})
	if err != nil || out != Miss || res.Bench != "x" {
		t.Fatalf("cold Do: outcome=%v err=%v", out, err)
	}
	if tier.puts.Load() != 1 {
		t.Fatalf("tier saw %d puts, want 1", tier.puts.Load())
	}
	if got, ok := tier.Get("k"); !ok || got.Bench != "x" {
		t.Fatal("simulated result not written through to the tier")
	}
	// A memory hit must not touch the tier again.
	gets := tier.gets.Load()
	if _, out, _ := s.Do(context.Background(), "k", nil); out != Hit {
		t.Fatalf("warm outcome = %v", out)
	}
	if tier.gets.Load() != gets {
		t.Fatal("memory hit consulted the tier")
	}
}

func TestTierReadThrough(t *testing.T) {
	s := New()
	tier := newFakeTier()
	tier.m["k"] = sim.Result{Bench: "warm", TotalRefs: 42}
	s.SetTier(tier)

	var calls atomic.Int64
	res, out, err := s.Do(context.Background(), "k", func(context.Context) (sim.Result, error) {
		calls.Add(1)
		return sim.Result{}, nil
	})
	if err != nil || out != Disk || res.Bench != "warm" {
		t.Fatalf("disk Do: res=%+v outcome=%v err=%v", res, out, err)
	}
	if calls.Load() != 0 {
		t.Fatal("tier hit still ran the simulation")
	}
	st := s.Stats()
	if st.DiskHits != 1 || st.Runs != 0 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The disk hit is now published in memory: second call is a plain hit.
	if _, out, _ := s.Do(context.Background(), "k", nil); out != Hit {
		t.Fatalf("second outcome = %v, want hit", out)
	}
	// No write-back of a result that came from the tier.
	if tier.puts.Load() != 0 {
		t.Fatal("disk hit was written back to the tier")
	}
}

func TestTierJoinersReportJoined(t *testing.T) {
	s := New()
	tier := newFakeTier()
	tier.m["k"] = sim.Result{Bench: "warm", TotalRefs: 1}
	s.SetTier(tier)

	const n = 4
	outcomes := make(chan Outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, out, err := s.Do(context.Background(), "k", func(context.Context) (sim.Result, error) {
				return sim.Result{}, errors.New("should not run")
			})
			if err != nil {
				t.Error(err)
			}
			outcomes <- out
		}()
	}
	wg.Wait()
	close(outcomes)
	var disk, joined, hit int
	for out := range outcomes {
		switch out {
		case Disk:
			disk++
		case Joined:
			joined++
		case Hit:
			hit++
		default:
			t.Fatalf("unexpected outcome %v", out)
		}
	}
	if disk != 1 {
		t.Fatalf("outcomes: disk=%d joined=%d hit=%d; want exactly one disk", disk, joined, hit)
	}
}
