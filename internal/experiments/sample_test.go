package experiments

import (
	"testing"

	"timekeeping/internal/sample"
	"timekeeping/internal/simcache"
)

// TestSampledSweepMode: a Runner with a Sampling policy runs every
// configuration in sampling mode — results carry estimates and resolve
// through cache keys distinct from the exact sweep's.
func TestSampledSweepMode(t *testing.T) {
	r := testRunner()
	r.Cache = simcache.New()
	r.Sampling = &sample.Policy{DetailedRefs: 1024, WarmRefs: 8192, DetailedWarmRefs: 256}

	res := r.Result(cfgBase, "twolf")
	if res.Estimate == nil {
		t.Fatal("sampled sweep produced no estimate")
	}
	if res.Estimate.Windows < 2 {
		t.Fatalf("windows = %d", res.Estimate.Windows)
	}
	if res.Tracker == nil {
		t.Fatal("base config lost its tracker in sampled mode")
	}

	// The sampled key must not collide with the exact key for the same
	// configuration.
	exact := testRunner()
	if simcache.Key("twolf", r.options(mutators[cfgBase])) == simcache.Key("twolf", exact.options(mutators[cfgBase])) {
		t.Fatal("sampled and exact sweeps share a cache key")
	}

	// A figure built from sampled runs still renders.
	tables := Figure1(r)
	if len(tables) == 0 || len(tables[0].Rows) == 0 {
		t.Fatal("sampled Figure 1 rendered nothing")
	}
}
