package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"sort"
	"syscall"
)

// metricDef names one reported metric. The catalogs below are the
// harness's half of the contract with BENCHMARK.json; the manifest test
// keeps the two identical.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd are the metrics every workload reports from its untraced run,
// in reference-machine time (calibrate.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"max_rss_mb", "MB", "lower"},
	// The median wait for one sweep over every (bench, config) point
	// (simulation workloads) or for one request (serve).
	{"latency_p50_ms", "ms", "lower"},
}

// perLayer are the metrics every workload reports from its traced run.
// Most come from the layer probe (probe.go), which measures each layer by
// ablation and by timing calls into its public functions from outside;
// the service counts and the bench.* ratios come from the workload's own
// runs.
var perLayer = []metricDef{
	{"workload.ns_per_ref", "ns", "lower"},
	{"sim.replay_ns_per_ref", "ns", "lower"},
	{"sim.ns_per_ref.eon", "ns", "lower"},
	{"sim.ns_per_ref.twolf", "ns", "lower"},
	{"sim.ns_per_ref.vpr", "ns", "lower"},
	{"sim.ns_per_ref.ammp", "ns", "lower"},
	{"sim.ns_per_ref.swim", "ns", "lower"},
	{"sim.ns_per_ref.mcf", "ns", "lower"},
	{"sim.ns_per_ref.facerec", "ns", "lower"},
	{"sim.ns_per_ref.gcc", "ns", "lower"},
	{"core.tracker_ns_per_ref", "ns", "lower"},
	{"hier.miss_path_ns_per_ref", "ns", "lower"},
	{"hier.l1_miss_rate", "ratio", "lower"},
	{"hier.l2_miss_rate", "ratio", "lower"},
	{"hier.conflict_share", "ratio", "lower"},
	{"hier.capacity_share", "ratio", "lower"},
	{"core.generations", "count", "lower"},
	{"victim.ns_per_ref", "ns", "lower"},
	{"victim.admit_ratio", "ratio", "lower"},
	{"victim.hit_ratio", "ratio", "higher"},
	{"prefetch.tk_ns_per_ref", "ns", "lower"},
	{"prefetch.dbcp_ns_per_ref", "ns", "lower"},
	{"prefetch.tk_useful_ratio", "ratio", "higher"},
	{"prefetch.dbcp_useful_ratio", "ratio", "higher"},
	{"prefetch.tk_coverage", "ratio", "higher"},
	{"sample.fixed_wall_s", "s", "lower"},
	{"sample.phase_wall_s", "s", "lower"},
	{"sample.segmented_wall_s", "s", "lower"},
	{"sample.fixed_ipc_err", "ratio", "lower"},
	{"sample.phase_ipc_err", "ratio", "lower"},
	{"sample.warm_refs", "count", "higher"},
	{"sample.detailed_refs", "count", "lower"},
	{"sample.warm_ns_per_ref", "ns", "lower"},
	{"sample.detailed_ns_per_ref", "ns", "lower"},
	{"sample.vs_exact", "ratio", "lower"},
	{"sample.segment_extra_refs", "count", "lower"},
	{"sample.parallel_speedup", "ratio", "higher"},
	{"phase.profile_s", "s", "lower"},
	{"phase.cluster_s", "s", "lower"},
	{"phase.k_mean", "count", "lower"},
	{"simcache.key_us", "us", "lower"},
	{"simcache.hit_us", "us", "lower"},
	{"store.put_us_p50", "us", "lower"},
	{"store.get_us_p50", "us", "lower"},
	{"store.get_us_p99", "us", "lower"},
	{"serve.handler_hit_us", "us", "lower"},
	{"api.roundtrip_hit_us", "us", "lower"},
	{"serve.cold_sim_share", "ratio", "higher"},
	{"telemetry.hit_rps_ratio", "ratio", "lower"},
	{"cluster.hop_us", "us", "lower"},
	{"cluster.proxied_p99_ms", "ms", "lower"},
	{"simcache.hits", "count", "higher"},
	{"simcache.misses", "count", "lower"},
	{"simcache.disk_hits", "count", "higher"},
	{"store.quarantined", "count", "lower"},
	{"cluster.fallback", "count", "lower"},
	{"serve.queue_full", "count", "lower"},
	// serve's median latency per traffic class, from its timed run.
	{"serve.cold_p50_ms", "ms", "lower"},
	{"serve.disk_p50_ms", "ms", "lower"},
	{"serve.hit_p50_ms", "ms", "lower"},
	{"serve.proxied_p50_ms", "ms", "lower"},
	// The timed run's tail latency. It is not an end-to-end metric
	// because across seeds it repeats only within 10-25% on a shared
	// machine, too loosely for any bound to gate it.
	{"latency_p99_ms", "ms", "lower"},
	// Simulated trace references per second (simulation workloads) or
	// completed requests per second (serve), from the timed run. On the
	// simulation workloads it is the sweep's fixed reference count over
	// latency_p50_ms; on serve it is a mean over the run's wall time, which
	// a few stalls of a loaded host moved by up to 23% across seeds while
	// the median latency held within 1.5-8%.
	{"throughput", "1/s", "higher"},
	{"bench.trace_overhead", "ratio", "lower"},
	{"bench.trace_self_share", "ratio", "higher"},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line the harness prints, the part of its output
// that tools running the benchmark parse.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the typed record -out writes: the summary plus what a reader
// needs to reproduce and audit the run.
type report struct {
	Workload   string                 `json:"workload"`
	Seed       uint64                 `json:"seed"`
	Seconds    int                    `json:"seconds"`
	Traced     bool                   `json:"traced"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Ops        int                    `json:"ops"`
	Failed     int                    `json:"failed"`
	Correct    bool                   `json:"correct"`
	Digest     string                 `json:"digest"`
	Problems   []string               `json:"problems,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`
}

// values attaches each catalog metric's unit to its measured value.
func values(defs []metricDef, got map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: got[d.name], Unit: d.unit}
	}
	return out
}

// median returns the middle of xs (the mean of the middle two for an even
// count).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. An empty slice, left only by operations that all
// failed (and so already fail the run), gives 0: reports must stay
// encodable as JSON.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ratio returns num/den, or 0 when den is 0 (a layer that saw no events).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// digestOf hashes the canonical statistics blobs of a workload's distinct
// operations, in operation order.
func digestOf(blobs [][]byte) string {
	h := sha256.New()
	for _, b := range blobs {
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}
