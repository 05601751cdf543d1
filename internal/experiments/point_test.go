package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"timekeeping/internal/events"
	"timekeeping/internal/sample"
	"timekeeping/internal/sim"
	"timekeeping/internal/simcache"
)

// recordingTier is a durable tier that stores nothing and records every
// result written through it.
type recordingTier struct {
	mu   sync.Mutex
	puts map[string]sim.Result
}

func (t *recordingTier) Get(string) (sim.Result, bool) { return sim.Result{}, false }

func (t *recordingTier) Put(key string, res sim.Result) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.puts[key] = res
	return nil
}

// pointRunner is a small-scale sampled runner over a private cache, whose
// benchmarks cover every ablation's subset. Its base options carry a
// canary sink and no sampling policy: a point that bypasses the runner
// runs exact and emits into the canary.
func pointRunner() (*Runner, *events.Sink) {
	canary := events.NewSink(events.Config{Cap: 64}, nil)
	opts := sim.Default()
	opts.WarmupRefs = 10_000
	opts.MeasureRefs = 60_000
	opts.Events = canary
	return &Runner{
		Opts:     opts,
		Benches:  []string{"twolf", "swim"},
		Cache:    simcache.New(),
		Sampling: &sample.Policy{DetailedRefs: 1024, WarmRefs: 8192, DetailedWarmRefs: 256},
	}, canary
}

// TestAblationPointsResolveThroughRunner: under a sampled runner every
// point of every ablation and extension, named or ad hoc, completes
// through the runner's cache and carries an Estimate, and none runs
// outside the runner.
func TestAblationPointsResolveThroughRunner(t *testing.T) {
	for _, e := range Ablations() {
		r, canary := pointRunner()
		tier := &recordingTier{puts: map[string]sim.Result{}}
		r.Cache.SetTier(tier)
		e.Run(r)
		st := r.Cache.Stats()
		if st.Runs == 0 || st.Runs != uint64(len(tier.puts)) {
			t.Errorf("%s: cache completed %d runs and wrote %d results", e.ID, st.Runs, len(tier.puts))
		}
		for key, res := range tier.puts {
			if res.Estimate == nil {
				t.Errorf("%s: point %s ran exact under a sampled runner", e.ID, key)
			}
		}
		if n := canary.Emitted(); n != 0 {
			t.Errorf("%s: %d events from points that bypassed the runner", e.ID, n)
		}
	}
}

// TestCancelledRunnerPanicsEverywhere: with a cancelled context, every
// experiment and ablation that simulates panics with an error wrapping
// context.Canceled, and the cache starts no run.
func TestCancelledRunnerPanicsEverywhere(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range append(All(), Ablations()...) {
		if e.ID == "table1" {
			continue // renders the configuration; simulates nothing
		}
		r, _ := pointRunner()
		r.Ctx = ctx
		err := func() (err error) {
			defer func() {
				if v := recover(); v != nil {
					if err, _ = v.(error); err == nil {
						err = fmt.Errorf("panic with %v", v)
					}
				}
			}()
			e.Run(r)
			return nil
		}()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled run ended with %v, want a panic wrapping context.Canceled", e.ID, err)
		}
		if st := r.Cache.Stats(); st.Misses != 0 || st.Runs != 0 {
			t.Errorf("%s: cancelled runner started %d simulations and completed %d", e.ID, st.Misses, st.Runs)
		}
	}
}
