// Package experiments regenerates every table and figure of the paper's
// evaluation. Each Figure* function runs the simulations it needs (results
// are memoised per configuration and benchmark, and independent runs
// execute in parallel) and renders the same rows or series the paper
// plots.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"timekeeping/internal/core"
	"timekeeping/internal/events"
	"timekeeping/internal/report"
	"timekeeping/internal/sample"
	"timekeeping/internal/sim"
	"timekeeping/internal/simcache"
	"timekeeping/internal/workload"
)

// Config names for memoised runs.
const (
	cfgBase    = "base"    // Table 1 baseline with the timekeeping tracker attached
	cfgPerfect = "perfect" // all non-cold L1 misses free (Figure 1 limit study)
	cfgVNone   = "vnone"   // unfiltered 32-entry victim cache
	cfgVColl   = "vcollins"
	cfgVDecay  = "vdecay"
	cfgTK      = "tk"   // timekeeping prefetch, 8 KB table
	cfgDBCP    = "dbcp" // DBCP prefetch, 2 MB table
)

// mutators configure each named run.
var mutators = map[string]func(*sim.Options){
	cfgBase:    func(o *sim.Options) { o.Track = true },
	cfgPerfect: func(o *sim.Options) { o.Hier.PerfectL1 = true },
	cfgVNone:   func(o *sim.Options) { o.VictimFilter = sim.VictimNone },
	cfgVColl:   func(o *sim.Options) { o.VictimFilter = sim.VictimCollins },
	cfgVDecay:  func(o *sim.Options) { o.VictimFilter = sim.VictimDecay },
	cfgTK:      func(o *sim.Options) { o.Prefetcher = sim.PrefetchTK },
	cfgDBCP:    func(o *sim.Options) { o.Prefetcher = sim.PrefetchDBCP },
}

// Runner resolves simulation results through a shared content-addressed
// cache, so that, e.g., the baseline runs Figure 1 needs are reused by
// Figures 2, 13, 19 and 22 — and by every other Runner (or tkserve
// request) in the process that asks for the same configuration.
type Runner struct {
	// Opts is the base configuration each named run mutates.
	Opts sim.Options
	// Benches is the benchmark set (defaults to the full 26-program
	// suite).
	Benches []string
	// Cache stores results keyed by configuration content; nil means the
	// process-wide simcache.Default. Concurrent Runners sharing a cache
	// never simulate the same (config, bench) pair twice.
	Cache *simcache.Store
	// Ctx, when set, cancels in-flight simulations at reference-loop
	// granularity; runs then panic with the context error (recovered by
	// the serving layer).
	Ctx context.Context
	// Sampling, when non-nil, runs every configuration in statistical
	// sampling mode (internal/sample): results carry Estimate confidence
	// intervals, resolve through cache keys distinct from exact runs, and
	// the sweep trades exactness for a several-fold wall-clock reduction.
	Sampling *sample.Policy
	// Events, when non-nil, receives generation events and one wall-clock
	// span per experiment point ("config/bench") that actually simulates.
	// Points satisfied from the cache emit nothing — the run never
	// executed. Shared by every run this Runner resolves.
	Events *events.Sink
}

// NewRunner returns a Runner at the default simulation scale over the full
// suite, backed by the process-wide result cache.
func NewRunner() *Runner {
	return &Runner{
		Opts:    sim.Default(),
		Benches: workload.Names(),
		Cache:   simcache.Default,
	}
}

func (r *Runner) cache() *simcache.Store {
	if r.Cache != nil {
		return r.Cache
	}
	return simcache.Default
}

func (r *Runner) ctx() context.Context {
	if r.Ctx != nil {
		return r.Ctx
	}
	return context.Background()
}

// options returns the named config's full option set; it panics on an
// unknown config name.
func (r *Runner) options(config string) sim.Options {
	mutate, ok := mutators[config]
	if !ok {
		panic(fmt.Sprintf("experiments: unknown config %q", config))
	}
	opts := r.Opts
	mutate(&opts)
	opts.Sampling = r.Sampling
	opts.Events = r.Events
	return opts
}

// Result returns the memoised result for a named configuration and
// benchmark, running it if needed — the exported form of get, used by the
// benchmark smoke's golden verification and by tests.
func (r *Runner) Result(config, bench string) sim.Result { return r.get(config, bench) }

// get returns the cached result for (config, bench), running it if needed.
func (r *Runner) get(config, bench string) sim.Result {
	res, err := r.run(config, bench, r.options(config))
	if err != nil {
		panic(fmt.Errorf("experiments: %s/%s: %w", config, bench, err))
	}
	return res
}

// run resolves one (config, bench, opts) point through the shared cache;
// concurrent callers of the same pair simulate once. The config name only
// labels the point's event span — opts alone determine the cache key.
func (r *Runner) run(config, bench string, opts sim.Options) (sim.Result, error) {
	spec := workload.MustProfile(bench)
	res, _, err := r.cache().Do(r.ctx(), simcache.Key(bench, opts), func(ctx context.Context) (sim.Result, error) {
		span := r.Events.BeginSpan(config+"/"+bench, 0)
		defer r.Events.EndSpan(span, 0)
		return sim.Run(ctx, sim.Spec{Workload: spec, Opts: opts})
	})
	return res, err
}

// ensure runs any missing (config, bench) pairs in parallel, at most
// GOMAXPROCS at a time. The semaphore is acquired before each goroutine is
// spawned, so no more than GOMAXPROCS worker goroutines ever exist; pairs
// another Runner already has in flight are joined, not re-simulated.
func (r *Runner) ensure(config string, benches []string) {
	opts := r.options(config)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for _, bench := range benches {
		if _, ok := r.cache().Lookup(simcache.Key(bench, opts)); ok {
			continue
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(bench string) {
			defer wg.Done()
			defer func() { <-sem }()
			// Errors (cancellation) are surfaced by the get that needs
			// the result; a panic here would tear the process down.
			_, _ = r.run(config, bench, opts)
		}(bench)
	}
	wg.Wait()
}

// ensureAll pre-runs a config over the Runner's benchmark set.
func (r *Runner) ensureAll(config string) {
	r.ensure(config, r.Benches)
}

// aggregateMetrics merges the tracked timekeeping metrics across the
// benchmark suite (the paper's suite-wide distribution plots).
func (r *Runner) aggregateMetrics() *core.Metrics {
	r.ensureAll(cfgBase)
	m := core.NewMetrics()
	for _, b := range r.Benches {
		res := r.get(cfgBase, b)
		if res.Tracker != nil {
			m.Merge(res.Tracker)
		}
	}
	return m
}

// potential returns each benchmark's Figure 1 potential improvement (in
// percent) and the benchmark list sorted ascending by it — the left-to-
// right order the paper uses in Figures 1, 2, 13 and 19.
func (r *Runner) potential() (map[string]float64, []string) {
	r.ensureAll(cfgBase)
	r.ensureAll(cfgPerfect)
	pot := make(map[string]float64, len(r.Benches))
	for _, b := range r.Benches {
		pot[b] = sim.Improvement(r.get(cfgPerfect, b), r.get(cfgBase, b))
	}
	order := append([]string(nil), r.Benches...)
	sort.SliceStable(order, func(i, j int) bool { return pot[order[i]] < pot[order[j]] })
	return pot, order
}

// Experiment couples a figure/table ID with its generator.
type Experiment struct {
	ID    string
	Title string
	Run   func(*Runner) []*report.Table
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Configuration of simulated processor", Table1},
		{"fig1", "Potential IPC improvement without conflict+capacity misses", Figure1},
		{"fig2", "L1 miss breakdown: conflict / cold / capacity", Figure2},
		{"fig4", "Distribution of live and dead times", Figure4},
		{"fig5", "Distribution of access and reload intervals", Figure5},
		{"fig7", "Reload interval distribution by miss type", Figure7},
		{"fig8", "Conflict prediction by reload interval: accuracy & coverage", Figure8},
		{"fig9", "Dead time distribution by miss type", Figure9},
		{"fig10", "Conflict prediction by dead time: accuracy & coverage", Figure10},
		{"fig11", "Zero-live-time conflict predictor per benchmark", Figure11},
		{"fig13", "Victim cache filters: IPC improvement and fill traffic", Figure13},
		{"fig14", "Dead-block prediction by dead time (decay)", Figure14},
		{"fig15", "Live time variability", Figure15},
		{"fig16", "Live-time dead-block predictor per benchmark", Figure16},
		{"fig19", "Prefetch IPC improvement: timekeeping 8KB vs DBCP 2MB", Figure19},
		{"fig20", "Address prediction accuracy & coverage (8 best performers)", Figure20},
		{"fig21", "Prefetch timeliness breakdown", Figure21},
		{"fig22", "Summary: which mechanism helps which program", Figure22},
	}
}

// Ablations returns the design-choice sweeps beyond the paper's figures
// (see DESIGN.md). They are not part of All() because they multiply the
// simulation count; run them explicitly via their IDs.
func Ablations() []Experiment {
	return []Experiment{
		{"ablate-table", "Correlation table size sweep", AblateTableSize},
		{"ablate-mn", "Correlation-table index split (m/n)", AblateIndexSplit},
		{"ablate-victim", "Victim-filter dead-time threshold sweep", AblateVictimThreshold},
		{"ablate-scale", "Live-time scale sweep", AblateLiveScale},
		{"ablate-ltres", "Live-time counter resolution sweep", AblateLiveTimeResolution},
		{"ablate-swpf", "Software-prefetch sensitivity", AblateDropSWPrefetch},
		{"ext-decay", "Cache decay: leakage saved vs extra misses", ExtDecay},
		{"ext-adaptive", "Adaptive victim-filter threshold (future work)", ExtAdaptiveVictim},
		{"ext-nextline", "Next-line prefetcher comparison", ExtNextLine},
		{"ext-reloadfilter", "Reload-interval (L2) victim filter", ExtReloadFilter},
		{"ablate-assoc", "L1 associativity sweep", AblateAssociativity},
	}
}

// ByID returns the experiment (or ablation) with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	for _, e := range Ablations() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
