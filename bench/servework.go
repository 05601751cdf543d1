package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"timekeeping/internal/sim"
	"timekeeping/internal/workload"
	"timekeeping/pkg/api"
)

// trafficClass is which serving path a request takes.
type trafficClass int

const (
	// classCold sends a key once, to its owner: the request queues,
	// simulates and persists.
	classCold trafficClass = iota
	// classDisk sends a populated key to its owner right after the servers
	// were renewed with empty caches: a disk-tier hit.
	classDisk
	// classHit sends a populated key to its owner again: an in-memory
	// cache hit.
	classHit
	// classProxied sends a populated key to the node that does not own it:
	// one proxy hop to a memory hit.
	classProxied
)

var classNames = [...]string{"cold", "disk", "hit", "proxied"}

func (c trafficClass) String() string { return classNames[c] }

// outcomes is the cache outcome each class's requests must report.
var outcomes = [...]string{
	classCold:    api.CacheMiss,
	classDisk:    api.CacheDisk,
	classHit:     api.CacheHit,
	classProxied: api.CacheProxied,
}

// serveWorkload is a closed loop of two pkg/api clients against an
// in-process two-node fleet, sending every traffic class in rounds so a
// slow stretch of the machine lands on all of them. Each round starts from
// fresh servers and empty caches over the same stores and sends, in order:
// the round's cold requests; one pass over the populated keys, which the
// empty caches answer from disk; the keys again as memory hits; and the
// keys to the node that does not own them, as proxied hits. Renewing the
// servers also drops their job tables (a server keeps every job it ran,
// about 9 KB each), so memory stays flat however long the run.
type serveWorkload struct{}

func (*serveWorkload) name() string { return "serve" }

// roundsPerMinute is how many rounds a run makes per minute of -seconds:
// about as many as fit on a 2-vCPU machine, so a run lasts roughly
// -seconds.
const roundsPerMinute = 240

func rounds(e *env) int {
	if e.scale.rounds > 0 {
		return e.scale.rounds
	}
	return max(1, int(math.Round(float64(roundsPerMinute*e.seconds)/60)))
}

// spotEvery is how often a cold result is re-simulated in process and
// compared with what the service answered.
const spotEvery = 50

// block is one class's requests within a round and the node each goes to.
type block struct {
	class trafficClass
	reqs  []api.RunRequest
	nodes []int
	keys  []int // index into the populated keys, or -1 for a cold request
}

type serveSession struct {
	f      *fleet
	cal    *calibrator
	rounds int
	want   [][]byte // canonical views of the populated keys
	// warm are the disk, hit and proxied blocks every round repeats.
	warm []block
	// cold are the cold blocks, one per round, each with its own keys.
	cold []block
}

// requestsFor derives n requests from the seed: the benches in rotation
// at the serving scale, each with its own simulation seed, starting at
// index from.
func requestsFor(e *env, from, n int) []api.RunRequest {
	reqs := make([]api.RunRequest, n)
	for i := range reqs {
		k := from + i
		reqs[i] = api.RunRequest{
			Bench:  e.scale.benches[k%len(e.scale.benches)],
			Warmup: e.scale.reqWarmup,
			Refs:   e.scale.reqRefs,
			Seed:   e.seed*1_000_003 + uint64(k) + 1,
		}
	}
	return reqs
}

// setup starts the fleet, populates the keys the warm classes cycle
// through, and lays out every round's requests.
func (w *serveWorkload) setup(ctx context.Context, e *env) (session, error) {
	f, err := startFleet(e, true)
	if err != nil {
		return nil, err
	}
	s, err := newServeSession(ctx, e, f)
	if err != nil {
		f.close()
		return nil, err
	}
	return s, nil
}

func newServeSession(ctx context.Context, e *env, f *fleet) (*serveSession, error) {
	sc := e.scale
	s := &serveSession{f: f, cal: e.cal, rounds: rounds(e)}
	keys := requestsFor(e, 0, sc.keys)
	owners, err := f.ownersOf(keys)
	if err != nil {
		return nil, err
	}
	cycle := func(class trafficClass, n int, other bool) block {
		b := block{class: class}
		for i := 0; i < n; i++ {
			k := i % len(keys)
			node := owners[k]
			if other {
				node = 1 - node
			}
			b.reqs = append(b.reqs, keys[k])
			b.nodes = append(b.nodes, node)
			b.keys = append(b.keys, k)
		}
		return b
	}
	s.warm = []block{
		cycle(classDisk, len(keys), false),
		cycle(classHit, sc.hitsPerRound, false),
		cycle(classProxied, sc.proxiedPerRound, true),
	}
	for r := 0; r < s.rounds; r++ {
		reqs := requestsFor(e, sc.keys+r*sc.coldPerRound, sc.coldPerRound)
		nodes, err := f.ownersOf(reqs)
		if err != nil {
			return nil, err
		}
		b := block{class: classCold, reqs: reqs, nodes: nodes, keys: make([]int, len(reqs))}
		for i := range b.keys {
			b.keys[i] = -1
		}
		s.cold = append(s.cold, b)
	}
	if s.want, err = f.populate(ctx, keys, owners); err != nil {
		return nil, err
	}
	return s, nil
}

func (f *fleet) ownersOf(reqs []api.RunRequest) ([]int, error) {
	owners := make([]int, len(reqs))
	for i, r := range reqs {
		o, err := f.owner(r)
		if err != nil {
			return nil, err
		}
		owners[i] = o
	}
	return owners, nil
}

func (s *serveSession) close() { s.f.close() }

// measure sends every round and checks every reply: the cache outcome its
// class must produce, and a result equal to the key's cold result (or, for
// cold requests, every spotEvery-th one checked against an in-process
// simulation). Request latency is timed at the client. Each round is one
// calibrated stretch: cold requests, which are mostly simulation, are
// scaled by the cache kernel, and cache-answered ones by the echo kernel.
func (s *serveSession) measure(ctx context.Context, parent *span) (*outcome, error) {
	echo, err := newEchoKernel()
	if err != nil {
		return nil, fmt.Errorf("starting the echo kernel: %w", err)
	}
	defer echo.close()
	out := &outcome{}
	var all []float64
	byClass := make([][]float64, len(classNames))
	blobs := append([][]byte(nil), s.want...)
	queueFull, colds := 0, 0
	var wall float64
	before := s.f.counts()
	// Start from a collected heap, so the set-ups' garbage does not decide
	// where the measurement's collections fall. Inside the measurement the
	// collector paces itself, as in a long-running server.
	runtime.GC()
	for r := 0; r < s.rounds; r++ {
		s.f.renew()
		blocks := append([]block{s.cold[r]}, s.warm...)
		replies := make([][]reply, len(blocks))
		lat := make([][]float64, len(blocks))
		host := make([]time.Duration, len(blocks))
		if err := echo.mark(); err != nil {
			return nil, fmt.Errorf("echo kernel: %w", err)
		}
		s.cal.mark()
		for j, b := range blocks {
			replies[j] = make([]reply, len(b.reqs))
			lat[j] = make([]float64, len(b.reqs))
			host[j] = closedLoop(len(b.reqs), func(c, i int) {
				req, node := b.reqs[i], b.nodes[i]
				sp := parent.child("api.Client.Run", "class", b.class.String(), "bench", req.Bench,
					"seed", fmt.Sprint(req.Seed), "node", s.f.nodes[node].url).onNode(fmt.Sprintf("client %d", c))
				rep, d := s.f.call(ctx, node, req)
				sp.end("cache", rep.cache)
				replies[j][i], lat[j][i] = rep, 1000*d.Seconds()
			})
		}
		compute := s.cal.factor()
		cached, err := echo.factor()
		if err != nil {
			return nil, fmt.Errorf("echo kernel: %w", err)
		}

		for j, b := range blocks {
			f := cached
			if b.class == classCold {
				f = compute
			}
			wall += f * host[j].Seconds()
			for i, rep := range replies[j] {
				ms := f * lat[j][i]
				all = append(all, ms)
				byClass[b.class] = append(byClass[b.class], ms)
				out.ops++
				req := b.reqs[i]
				if rep.err != nil {
					if isQueueFull(rep.err) {
						queueFull++
					}
					out.fail("%s %s seed %d: %v", b.class, req.Bench, req.Seed, rep.err)
					continue
				}
				if want := outcomes[b.class]; rep.cache != want {
					out.fail("%s %s seed %d answered %q, want %q", b.class, req.Bench, req.Seed, rep.cache, want)
					continue
				}
				view, err := canonical(rep.result)
				if err != nil {
					out.fail("%s %s seed %d: encoding the result: %v", b.class, req.Bench, req.Seed, err)
					continue
				}
				if k := b.keys[i]; k >= 0 {
					if !bytes.Equal(view, s.want[k]) {
						out.fail("%s %s seed %d: result differs from the cold one", b.class, req.Bench, req.Seed)
					}
					continue
				}
				blobs = append(blobs, view)
				if colds%spotEvery == 0 {
					if err := spotCheck(ctx, req, rep.result); err != nil {
						out.fail("cold %s seed %d: %v", req.Bench, req.Seed, err)
					}
				}
				colds++
			}
		}
	}
	delta := s.f.counts().minus(before)
	if delta.quarantined > 0 || delta.fallback > 0 {
		out.problemf("the store quarantined %d entries and the cluster fell back to local compute %d times", delta.quarantined, delta.fallback)
	}
	out.wall = wall
	out.digest = digestOf(blobs)
	out.layers = map[string]float64{
		"simcache.hits":      float64(delta.hits),
		"simcache.misses":    float64(delta.misses),
		"simcache.disk_hits": float64(delta.diskHits),
		"store.quarantined":  float64(delta.quarantined),
		"cluster.fallback":   float64(delta.fallback),
		"serve.queue_full":   float64(queueFull),
		"latency_p99_ms":     quantile(all, 0.99),
		"throughput":         ratio(float64(len(all)), wall),
	}
	for c, ms := range byClass {
		out.layers["serve."+classNames[c]+"_p50_ms"] = median(ms)
	}
	out.metrics = map[string]float64{"latency_p50_ms": median(all)}
	return out, nil
}

// spotCheck re-runs a served request in process and compares the
// statistics the service returned.
func spotCheck(ctx context.Context, req api.RunRequest, v *api.ResultView) error {
	wl, err := workload.Profile(req.Bench)
	if err != nil {
		return err
	}
	res, err := sim.Run(ctx, sim.Spec{Workload: wl, Opts: options(req.Warmup, req.Refs, req.Seed)})
	if err != nil {
		return fmt.Errorf("in-process run: %w", err)
	}
	if got, want := flatStats(v), simStats(res); got != want {
		return fmt.Errorf("served statistics %+v differ from the in-process run's %+v", got, want)
	}
	return nil
}

// flat is the counter set a result view and a simulation result share.
type flat struct {
	bench                                   string
	ipc                                     float64
	insts, cycles, refs, loads, stores, all uint64
	l1, l1Hits, l1Misses, l1Writebacks      uint64
	l2Hits, l2Misses, l2Writebacks          uint64
	cold, conflict, capacity, victimHits    uint64
}

func flatStats(v *api.ResultView) flat {
	return flat{
		v.Bench, v.IPC, v.Insts, v.Cycles, v.Refs, v.Loads, v.Stores, v.TotalRefs,
		v.L1.Accesses, v.L1.Hits, v.L1.Misses, v.L1.Writebacks,
		v.L2.Hits, v.L2.Misses, v.L2.Writebacks,
		v.ColdMisses, v.ConflictMisses, v.CapacityMisses, v.VictimHits,
	}
}

func simStats(r sim.Result) flat {
	h := r.Hier
	return flat{
		r.Bench, r.CPU.IPC, r.CPU.Insts, r.CPU.Cycles, r.CPU.Refs, r.CPU.Loads, r.CPU.Stores, r.TotalRefs,
		h.Accesses, h.Hits, h.Misses, h.Writebacks,
		h.L2Hits, h.L2Misses, h.L2Writebacks,
		h.ColdMisses, h.ConflMiss, h.CapMiss, h.VictimHits,
	}
}
