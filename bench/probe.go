package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"timekeeping/internal/phase"
	"timekeeping/internal/sample"
	"timekeeping/internal/sim"
	"timekeeping/internal/simcache"
	"timekeeping/internal/store"
	"timekeeping/internal/trace"
	"timekeeping/internal/workload"
	"timekeeping/pkg/api"
)

// probe measures every layer on the same inputs in every traced run: the
// scale's benches at the probe length, seeded by -seed, and a small fleet
// at the serving scale. A simulator layer's cost is the difference
// between two runs that differ in that layer alone; a service layer's is
// timed by calling its public functions from outside. Nothing inside the
// program is instrumented.
func probe(ctx context.Context, e *env, root *span) (map[string]float64, *outcome, error) {
	p := &prober{ctx: ctx, e: e, out: &outcome{}, m: map[string]float64{}}
	p.parent = root.child("probe simulator")
	err := p.simulator()
	p.parent.end()
	if err != nil {
		return nil, nil, err
	}
	p.parent = root.child("probe service")
	err = p.service()
	p.parent.end()
	if err != nil {
		return nil, nil, err
	}
	return p.m, p.out, nil
}

type prober struct {
	ctx    context.Context
	e      *env
	parent *span
	out    *outcome
	m      map[string]float64
}

// variant is one probe configuration; each layer's cost is read off the
// difference between two of them.
type variant struct {
	name  string
	apply func(o *sim.Options, pol sample.Policy)
}

func withPolicy(tune func(*sample.Policy)) func(*sim.Options, sample.Policy) {
	return func(o *sim.Options, pol sample.Policy) {
		o.Track = true
		tune(&pol)
		o.Sampling = &pol
	}
}

var variants = []variant{
	{"plain", func(*sim.Options, sample.Policy) {}},
	{"base", func(o *sim.Options, _ sample.Policy) { o.Track = true }},
	{"perfect", func(o *sim.Options, _ sample.Policy) { o.Hier.PerfectL1 = true }},
	{"vdecay", func(o *sim.Options, _ sample.Policy) { o.VictimFilter = sim.VictimDecay }},
	{"tk", func(o *sim.Options, _ sample.Policy) { o.Prefetcher = sim.PrefetchTK }},
	{"dbcp", func(o *sim.Options, _ sample.Policy) { o.Prefetcher = sim.PrefetchDBCP }},
	{"fixed", withPolicy(func(*sample.Policy) {})},
	// halfwarm halves the functional-warming span, so the two fixed runs
	// split their time into warm and detailed references.
	{"halfwarm", withPolicy(func(p *sample.Policy) { p.WarmRefs /= 2 })},
	{"phase", withPolicy(func(p *sample.Policy) { p.Schedule = sample.SchedulePhase })},
	{"segmented1", withPolicy(func(p *sample.Policy) { p.SegmentWindows, p.Parallelism = 4, 1 })},
	{"segmented2", withPolicy(func(p *sample.Policy) { p.SegmentWindows, p.Parallelism = 4, 2 })},
}

// phaseIntervals and phaseMaxK are the phase schedule's defaults: the
// probe times the same profiling and clustering calls a phase run makes.
const (
	phaseIntervals = sample.DefaultPhaseIntervals
	phaseMaxK      = 8
)

// run times one simulation under a span.
func (p *prober) run(bench, name string, spec sim.Spec) (sim.Result, float64) {
	sp := p.parent.child("sim.Run", "bench", bench, "variant", name)
	t0 := time.Now()
	res, err := sim.Run(p.ctx, spec)
	d := time.Since(t0).Seconds()
	p.out.ops++
	if err != nil {
		sp.end("error", err.Error())
		p.out.fail("probe %s/%s: %v", bench, name, err)
		return res, d
	}
	sp.end(resultAttrs(res)...)
	return res, d
}

// timed runs fn under a span and returns its wall time in seconds.
func (p *prober) timed(name string, fn func(), kv ...string) float64 {
	sp := p.parent.child(name, kv...)
	t0 := time.Now()
	fn()
	d := time.Since(t0).Seconds()
	sp.end()
	return d
}

// step runs fn with its spans under a child span of the current parent.
func (p *prober) step(name string, fn func()) {
	parent := p.parent
	p.parent = parent.child(name)
	fn()
	p.parent.end()
	p.parent = parent
}

// same fails the probe when two runs that must agree do not.
func (p *prober) same(bench, what string, a, b sim.Result) {
	ab, aerr := json.Marshal(a)
	bb, berr := json.Marshal(b)
	if aerr != nil || berr != nil || !bytes.Equal(ab, bb) {
		p.out.fail("probe %s: %s changed the statistics", bench, what)
	}
}

// simulator probes the simulation layers: every variant on every bench,
// the workload generator and a replay of what it generated, and the phase
// profiler and clusterer.
func (p *prober) simulator() error {
	s := p.e.scale
	wall := map[string]float64{}     // variant -> wall time summed over benches
	got := map[string][]sim.Result{} // variant -> one result per bench
	var refs, gen, replay, profile, cluster, clusters float64
	for _, b := range s.benches {
		wl, err := workload.Profile(b)
		if err != nil {
			return err
		}
		plain := options(s.probeWarmup, s.probeMeasure, p.e.seed)
		n := plain.WarmupRefs + plain.MeasureRefs
		refs += float64(n)

		var stream []trace.Ref
		gen += p.timed("trace.Collect", func() { stream = trace.Collect(wl.Stream(p.e.seed), int(n)) }, "bench", b)
		ran := map[string]sim.Result{}
		for _, v := range variants {
			o := plain
			v.apply(&o, s.policy)
			r, d := p.run(b, v.name, sim.Spec{Workload: wl, Opts: o})
			wall[v.name] += d
			ran[v.name] = r
			got[v.name] = append(got[v.name], r)
			if v.name == "base" {
				p.m["sim.ns_per_ref."+b] = 1e9 * d / float64(n)
			}
		}
		r, d := p.run(b, "replay", sim.Spec{Name: b, Stream: &trace.SliceStream{Refs: stream}, Opts: plain})
		replay += d
		p.same(b, "replaying the generated stream", r, ran["plain"])
		p.same(b, "running segments in parallel", ran["segmented2"], ran["segmented1"])

		var sigs [][]float64
		profile += p.timed("phase.Signatures", func() {
			sigs, _, err = phase.Signatures(p.ctx, wl.Stream(p.e.seed), plain.WarmupRefs, plain.MeasureRefs/phaseIntervals, phaseIntervals, phase.Config{Seed: 1})
		}, "bench", b)
		if err != nil || len(sigs) == 0 {
			return fmt.Errorf("profiling %s: %d signatures, %v", b, len(sigs), err)
		}
		var cl *phase.Clustering
		cluster += p.timed("phase.Select", func() { cl = phase.Select(sigs, phaseMaxK, 1) }, "bench", b)
		clusters += float64(cl.K)
	}

	m := p.m
	ns := func(sec float64) float64 { return 1e9 * sec / refs }
	m["workload.ns_per_ref"] = ns(gen)
	m["sim.replay_ns_per_ref"] = ns(replay)
	m["core.tracker_ns_per_ref"] = ns(wall["base"] - wall["plain"])
	m["hier.miss_path_ns_per_ref"] = ns(wall["plain"] - wall["perfect"])
	m["victim.ns_per_ref"] = ns(wall["vdecay"] - wall["plain"])
	m["prefetch.tk_ns_per_ref"] = ns(wall["tk"] - wall["plain"])
	m["prefetch.dbcp_ns_per_ref"] = ns(wall["dbcp"] - wall["plain"])

	var acc, miss, l2, l2miss, conflict, capacity float64
	for _, r := range got["plain"] {
		h := r.Hier
		acc += float64(h.Accesses)
		miss += float64(h.Misses)
		l2 += float64(h.L2Hits + h.L2Misses)
		l2miss += float64(h.L2Misses)
		conflict += float64(h.ConflMiss)
		capacity += float64(h.CapMiss)
	}
	m["hier.l1_miss_rate"] = ratio(miss, acc)
	m["hier.l2_miss_rate"] = ratio(l2miss, l2)
	m["hier.conflict_share"] = ratio(conflict, miss)
	m["hier.capacity_share"] = ratio(capacity, miss)
	for _, r := range got["base"] {
		if r.Tracker != nil {
			m["core.generations"] += float64(r.Tracker.Generations)
		}
	}

	var offered, admitted, lookups, victimHits float64
	for _, r := range got["vdecay"] {
		if v := r.Victim; v != nil {
			offered += float64(v.Offered)
			admitted += float64(v.Admitted)
			lookups += float64(v.Lookups)
			victimHits += float64(v.Hits)
		}
	}
	m["victim.admit_ratio"] = ratio(admitted, offered)
	m["victim.hit_ratio"] = ratio(victimHits, lookups)
	useful := func(variant string) float64 {
		var issued, used float64
		for _, r := range got[variant] {
			issued += float64(r.Hier.Prefetches)
			used += float64(r.Hier.PFUseful)
		}
		return ratio(used, issued)
	}
	m["prefetch.tk_useful_ratio"] = useful("tk")
	m["prefetch.dbcp_useful_ratio"] = useful("dbcp")
	for _, r := range got["tk"] {
		m["prefetch.tk_coverage"] += r.PFCoverage / float64(len(s.benches))
	}

	// Sampling: the fixed and half-warm runs give two equations in the
	// cost of a warm and of a detailed reference.
	split := func(variant string) (warm, detailed float64) {
		for _, r := range got[variant] {
			if r.Estimate != nil {
				warm += float64(r.Estimate.WarmRefs)
				detailed += float64(r.Estimate.DetailedRefs)
			}
		}
		return warm, detailed
	}
	w1, d1 := split("fixed")
	w2, d2 := split("halfwarm")
	t1, t2 := wall["fixed"], wall["halfwarm"]
	det := w1*d2 - w2*d1
	m["sample.warm_ns_per_ref"] = 1e9 * ratio(t1*d2-t2*d1, det)
	m["sample.detailed_ns_per_ref"] = 1e9 * ratio(w1*t2-w2*t1, det)
	m["sample.warm_refs"] = w1
	m["sample.detailed_refs"] = d1
	m["sample.fixed_wall_s"] = wall["fixed"]
	m["sample.phase_wall_s"] = wall["phase"]
	m["sample.segmented_wall_s"] = wall["segmented2"]
	m["sample.vs_exact"] = ratio(wall["fixed"], wall["base"])
	m["sample.parallel_speedup"] = ratio(wall["segmented1"], wall["segmented2"])
	for i, r := range got["segmented2"] {
		m["sample.segment_extra_refs"] += float64(r.TotalRefs) - float64(got["fixed"][i].TotalRefs)
	}
	ipcErr := func(variant string) float64 {
		var sum float64
		for i, exact := range got["base"] {
			if est := got[variant][i].Estimate; est != nil && exact.CPU.IPC > 0 {
				sum += math.Abs(est.IPC.Mean-exact.CPU.IPC) / exact.CPU.IPC
			}
		}
		return sum / float64(len(s.benches))
	}
	m["sample.fixed_ipc_err"] = ipcErr("fixed")
	m["sample.phase_ipc_err"] = ipcErr("phase")
	m["phase.profile_s"] = profile
	m["phase.cluster_s"] = cluster
	m["phase.k_mean"] = clusters / float64(len(s.benches))
	return nil
}

// errNotCached fails a simcache probe call that should have been a hit.
var errNotCached = fmt.Errorf("probe: key not in the cache")

// service probes the serving layers on two fleets, one tracing as
// tkserve ships and one with tracing off, over a few keys per bench.
func (p *prober) service() error {
	e := p.e
	calls := e.scale.probeCalls
	traced, err := startFleet(e, true)
	if err != nil {
		return err
	}
	defer traced.close()
	untraced, err := startFleet(e, false)
	if err != nil {
		return err
	}
	defer untraced.close()
	keys := requestsFor(e, 0, 2*len(e.scale.benches))
	owners, err := traced.ownersOf(keys)
	if err != nil {
		return err
	}
	untracedOwners, err := untraced.ownersOf(keys)
	if err != nil {
		return err
	}

	// Cold requests one at a time, each beside an in-process run of the
	// same configuration: the share of a cold request that is simulation.
	results := make([]sim.Result, len(keys))
	var coldMS, simMS []float64
	p.step("cold requests", func() {
		for i, req := range keys {
			r, d := traced.call(p.ctx, owners[i], req)
			p.out.ops++
			if r.err != nil || r.cache != api.CacheMiss {
				p.out.fail("probe cold %s seed %d: cache %q, %v", req.Bench, req.Seed, r.cache, r.err)
				continue
			}
			coldMS = append(coldMS, 1000*d.Seconds())
			res, sec := p.run(req.Bench, "in-process", sim.Spec{Workload: workload.MustProfile(req.Bench), Opts: options(req.Warmup, req.Refs, req.Seed)})
			results[i] = res
			simMS = append(simMS, 1000*sec)
			if flatStats(r.result) != simStats(res) {
				p.out.fail("probe cold %s seed %d: served statistics differ from the in-process run", req.Bench, req.Seed)
			}
		}
		_, err = untraced.populate(p.ctx, keys, untracedOwners)
	})
	if err != nil {
		return err
	}
	p.m["serve.cold_sim_share"] = ratio(median(simMS), median(coldMS))

	// Hits, alternating between the fleets so a slow stretch of the
	// machine lands on both: the tracing overhead as a throughput ratio.
	var hitMS []float64
	var tracedWall, untracedWall time.Duration
	const alternations = 4
	p.step("hits traced and untraced", func() {
		for a := 0; a < alternations; a++ {
			lat, w := p.load(traced, keys, owners, api.CacheHit, max(1, calls/alternations))
			hitMS = append(hitMS, lat...)
			tracedWall += w
			_, w = p.load(untraced, keys, untracedOwners, api.CacheHit, max(1, calls/alternations))
			untracedWall += w
		}
	})
	hitP50 := median(hitMS)
	p.m["telemetry.hit_rps_ratio"] = ratio(tracedWall.Seconds(), untracedWall.Seconds())

	others := make([]int, len(owners))
	for i, o := range owners {
		others[i] = 1 - o
	}
	var proxiedMS []float64
	p.step("proxied hits", func() { proxiedMS, _ = p.load(traced, keys, others, api.CacheProxied, calls) })
	p.m["cluster.hop_us"] = 1000 * (median(proxiedMS) - hitP50)
	p.m["cluster.proxied_p99_ms"] = quantile(proxiedMS, 0.99)

	// The handler alone, without a socket: what is left of a hit's
	// latency is the client and the loopback round trip.
	bodies := make([][]byte, len(keys))
	for i, k := range keys {
		if bodies[i], err = json.Marshal(k); err != nil {
			return err
		}
	}
	var handlerUS []float64
	p.step("serve.Handler hits", func() {
		for i := 0; i < calls; i++ {
			k := i % len(keys)
			h := traced.nodes[owners[k]].cur.Load().handler
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(bodies[k]))
			t0 := time.Now()
			h.ServeHTTP(rec, req)
			handlerUS = append(handlerUS, 1e6*time.Since(t0).Seconds())
			p.out.ops++
			if rec.Code != http.StatusOK {
				p.out.fail("probe handler %s: HTTP %d", keys[k].Bench, rec.Code)
			}
		}
	})
	p.m["serve.handler_hit_us"] = median(handlerUS)
	p.m["api.roundtrip_hit_us"] = 1000*hitP50 - median(handlerUS)

	var keyUS, doUS []float64
	p.step("simcache.Key and Store.Do", func() {
		for i := 0; i < calls; i++ {
			k := i % len(keys)
			req := keys[k]
			o := options(req.Warmup, req.Refs, req.Seed)
			t0 := time.Now()
			key := simcache.Key(req.Bench, o)
			keyUS = append(keyUS, 1e6*time.Since(t0).Seconds())
			cache := traced.nodes[owners[k]].cur.Load().cache
			t0 = time.Now()
			_, got, err := cache.Do(p.ctx, key, func(context.Context) (sim.Result, error) { return sim.Result{}, errNotCached })
			doUS = append(doUS, 1e6*time.Since(t0).Seconds())
			p.out.ops++
			if err != nil || got != simcache.Hit {
				p.out.fail("probe simcache %s: %q, %v", req.Bench, got, err)
			}
		}
	})
	p.m["simcache.key_us"] = median(keyUS)
	p.m["simcache.hit_us"] = median(doUS)

	p.step("store.Put and store.Get", func() { err = p.store(keys, results) })
	return err
}

// store times store.Put of the cold results and store.Get of them back,
// on a store of its own.
func (p *prober) store(keys []api.RunRequest, results []sim.Result) error {
	dir, err := os.MkdirTemp(p.e.workdir, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	storeKeys := make([]string, len(keys))
	for i, req := range keys {
		storeKeys[i] = simcache.Key(req.Bench, options(req.Warmup, req.Refs, req.Seed))
	}
	var putUS, getUS []float64
	const rounds = 4 // each key is written this many times, so puts outnumber keys
	for r := 0; r < rounds; r++ {
		for i, res := range results {
			t0 := time.Now()
			err := st.Put(storeKeys[i], res)
			putUS = append(putUS, 1e6*time.Since(t0).Seconds())
			p.out.ops++
			if err != nil {
				p.out.fail("probe store.Put: %v", err)
			}
		}
	}
	for i := 0; i < p.e.scale.probeCalls; i++ {
		t0 := time.Now()
		_, ok := st.Get(storeKeys[i%len(storeKeys)])
		getUS = append(getUS, 1e6*time.Since(t0).Seconds())
		p.out.ops++
		if !ok {
			p.out.fail("probe store.Get: entry missing")
		}
	}
	p.m["store.put_us_p50"] = median(putUS)
	p.m["store.get_us_p50"] = median(getUS)
	p.m["store.get_us_p99"] = quantile(getUS, 0.99)
	return nil
}

// load sends n requests from the closed loop, cycling through keys, each
// to nodes[key], and checks each reply's cache outcome. It returns the
// latencies in milliseconds and the loop's wall time.
func (p *prober) load(f *fleet, keys []api.RunRequest, nodes []int, want string, n int) ([]float64, time.Duration) {
	lat := make([]float64, n)
	replies := make([]reply, n)
	wall := closedLoop(n, func(_, i int) {
		k := i % len(keys)
		r, d := f.call(p.ctx, nodes[k], keys[k])
		lat[i] = 1000 * d.Seconds()
		replies[i] = r
	})
	p.out.ops += n
	for i, r := range replies {
		if r.err != nil || r.cache != want {
			p.out.fail("probe %s seed %d: cache %q, want %q, %v", keys[i%len(keys)].Bench, keys[i%len(keys)].Seed, r.cache, want, r.err)
		}
	}
	return lat, wall
}
