package experiments

// Concurrency contract of the shared result cache: two Runners resolving
// the same (config, bench) grid through one simcache.Store must produce
// identical Results while simulating each pair exactly once. "Exactly once"
// is asserted from the outside via the process-global sim_l1_accesses_total
// counter — a duplicated simulation would re-count its references — and
// from the inside via the store's Runs/Hits statistics. Run under -race
// this also exercises the store's locking end to end.

import (
	"sync"
	"testing"

	"timekeeping/internal/obs"
	"timekeeping/internal/sim"
	"timekeeping/internal/simcache"
)

func TestConcurrentRunnersShareCache(t *testing.T) {
	benches := []string{"eon", "twolf", "mcf"}
	configs := []string{cfgBase, cfgPerfect}
	opts := sim.Default()
	opts.WarmupRefs = 2_000
	opts.MeasureRefs = 10_000

	newRunner := func(store *simcache.Store) *Runner {
		return &Runner{Opts: opts, Benches: benches, Cache: store}
	}
	grid := func(r *Runner) map[string]sim.Result {
		out := make(map[string]sim.Result)
		for _, c := range configs {
			for _, b := range benches {
				out[c+"/"+b] = r.Result(c, b)
			}
		}
		return out
	}

	// Reference: one runner over a private store, with the simulated-work
	// counter delta it costs. Counters are process-global, so nothing else
	// may simulate concurrently — neither leg uses t.Parallel.
	ctr := obs.Default.Counter("sim_l1_accesses_total")
	before := ctr.Value()
	want := grid(newRunner(simcache.New()))
	soloCost := ctr.Value() - before
	if soloCost == 0 {
		t.Fatal("reference grid simulated nothing")
	}

	// Two runners race over a fresh shared store. The counter is read
	// before they start, so every access they make falls in the delta.
	shared := simcache.New()
	var wg sync.WaitGroup
	got := make([]map[string]sim.Result, 2)
	before = ctr.Value()
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = grid(newRunner(shared))
		}(i)
	}
	wg.Wait()
	sharedCost := ctr.Value() - before

	if sharedCost != soloCost {
		t.Errorf("two shared runners cost %d accesses, solo run cost %d — some (config, bench) pair simulated more than once", sharedCost, soloCost)
	}
	st := shared.Stats()
	pairs := uint64(len(configs) * len(benches))
	if st.Runs != pairs || st.Misses != pairs {
		t.Errorf("store ran %d simulations (%d misses), want %d", st.Runs, st.Misses, pairs)
	}
	// The second runner's calls must all be served without simulating:
	// either from the stored result (Hit) or by attaching to the other
	// runner's in-flight run (Joined).
	if st.Hits+st.Joined != pairs {
		t.Errorf("shared calls: %d hits + %d joins, want %d total", st.Hits, st.Joined, pairs)
	}

	for i, g := range got {
		for key, res := range g {
			ref, ok := want[key]
			if !ok {
				t.Fatalf("runner %d produced unexpected key %s", i, key)
			}
			if res.Hier != ref.Hier || res.CPU != ref.CPU || res.TotalRefs != ref.TotalRefs {
				t.Errorf("runner %d %s: result differs from solo reference\n got: hier=%+v cpu=%+v refs=%d\nwant: hier=%+v cpu=%+v refs=%d",
					i, key, res.Hier, res.CPU, res.TotalRefs, ref.Hier, ref.CPU, ref.TotalRefs)
			}
		}
	}
}
