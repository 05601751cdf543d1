// Package caps assembles the simulator's capability inventory — the one
// source of truth behind tkserve's GET /v1/capabilities and the CLI
// `-list` outputs (tksim, tkexp). Anything a request can name
// (benchmarks, victim filters, prefetchers, experiments) is enumerated
// here from the packages that define it, so the server and every command
// advertise exactly the same vocabulary. Every run takes the one
// execution engine, so there is no engine to name.
package caps

import (
	"runtime/debug"
	"sync"

	"timekeeping/internal/experiments"
	"timekeeping/internal/sim"
	"timekeeping/internal/workload"
	"timekeeping/pkg/api"
)

var buildOnce = sync.OnceValue(func() *api.BuildInfo {
	b := &api.BuildInfo{}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	b.GoVersion = info.GoVersion
	b.Version = info.Main.Version
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			b.Revision = s.Value
		case "vcs.modified":
			b.Modified = s.Value == "true"
		}
	}
	return b
})

// Build identifies the running binary — module version, VCS revision and
// Go toolchain from debug.ReadBuildInfo — for /v1/capabilities and the
// CLI -version flags. The returned value is shared; treat it as
// immutable.
func Build() *api.BuildInfo { return buildOnce() }

// Local returns this binary's capability inventory. The service-state
// fields (Events, Store, Cluster) are left zero: they describe a running
// server's configuration, which tkserve overlays before answering.
func Local() api.Capabilities {
	c := api.Capabilities{
		Benches:       workload.Names(),
		VictimFilters: asStrings(sim.VictimFilters()),
		Prefetchers:   asStrings(sim.Prefetchers()),
		Sampling:      true,
		Build:         Build(),
	}
	for _, e := range experiments.All() {
		c.Experiments = append(c.Experiments, api.ExperimentInfo{ID: e.ID, Title: e.Title})
	}
	for _, e := range experiments.Ablations() {
		c.Experiments = append(c.Experiments, api.ExperimentInfo{ID: e.ID, Title: e.Title})
	}
	return c
}

func asStrings[T ~string](vals []T) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = string(v)
	}
	return out
}
