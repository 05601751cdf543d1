// Package simcache is a process-wide, content-addressed store of
// simulation results. Results are keyed by a canonical hash of
// (benchmark, sim.Options), so any caller — the tkserve service, the
// experiments runner, a test — that asks for a configuration someone else
// already ran gets the stored result instead of simulating again.
//
// Concurrent requests for the same key are collapsed into a single
// simulation (singleflight). Each in-flight run is reference-counted by
// the callers waiting on it: a caller whose context is cancelled detaches
// without disturbing the run, and the run itself is cancelled only when
// the last interested caller has gone away.
//
// A Store may sit on top of a durable Tier (the disk result store of
// internal/store): the flight consults the tier before simulating, so a
// restarted process answers previously computed keys from disk, and every
// fresh simulation is written through so the tier survives the process.
//
// Stored results are shared between callers and must be treated as
// immutable.
package simcache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"timekeeping/internal/obs"
	"timekeeping/internal/sim"
)

// Process-wide outcome counters, registered up front so /metrics reports
// them at zero. They aggregate across every Store in the process (the
// tkserve cache, the experiments runner, ad-hoc CLI caches).
var (
	mHits     = obs.Default.Counter("sim_cache_hits_total")
	mMisses   = obs.Default.Counter("sim_cache_misses_total")
	mJoined   = obs.Default.Counter("sim_cache_joined_total")
	mDiskHits = obs.Default.Counter("sim_cache_disk_hits_total")
)

// Key returns the canonical content address of a (benchmark, options)
// pair: the hex SHA-256 of their deterministic JSON encoding. Every field
// of sim.Options that changes simulation behaviour changes the key.
func Key(bench string, opt sim.Options) string {
	blob, err := json.Marshal(struct {
		Bench string
		Opt   sim.Options
	}{bench, opt})
	if err != nil {
		panic(fmt.Sprintf("simcache: encoding options: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// Outcome says how a Do call was satisfied.
type Outcome string

const (
	// Hit means the result was already in the store.
	Hit Outcome = "hit"
	// Miss means this call started the simulation.
	Miss Outcome = "miss"
	// Joined means the call attached to another caller's in-flight run.
	Joined Outcome = "joined"
	// Disk means this call started a flight that was satisfied by the
	// durable tier instead of simulating.
	Disk Outcome = "disk"
)

// Tier is a durable result layer beneath the in-memory map — implemented
// by internal/store. Get must be safe for concurrent use and never return
// an invalid result (the disk tier quarantines anything that fails
// validation); Put failures are the tier's to log, since losing a write
// only costs durability.
type Tier interface {
	Get(key string) (sim.Result, bool)
	Put(key string, res sim.Result) error
}

// Stats is a point-in-time snapshot of store activity.
type Stats struct {
	Entries  int           // results currently stored in memory
	Inflight int           // runs currently executing
	Hits     uint64        // Do calls answered from the in-memory map
	Misses   uint64        // Do calls that started a flight
	Joined   uint64        // Do calls that attached to an in-flight run
	DiskHits uint64        // flights satisfied by the durable tier
	Runs     uint64        // simulations completed successfully
	Refs     uint64        // references simulated by completed runs (incl. warm-up)
	Wall     time.Duration // total wall time of completed runs
}

// Stage names a flight reports to its creator's StageFunc, in execution
// order: the durable-tier probe, the simulation itself (skipped on a disk
// hit), and the write-through persist.
const (
	StageProbeDisk = "probe_disk"
	StageSimulate  = "simulate"
	StagePersist   = "persist"
)

// StageFunc observes one completed stage of a flight: its name and wall
// extent. Called from the flight goroutine, in stage order.
type StageFunc func(stage string, start, end time.Time)

// flight is one in-progress simulation and the callers waiting on it.
type flight struct {
	waiters int // callers still interested; guarded by Store.mu
	cancel  context.CancelFunc
	done    chan struct{}
	res     sim.Result // set before done closes
	err     error
	disk    bool      // satisfied by the tier, not a simulation
	onStage StageFunc // creator's stage observer; nil when untraced
}

// Store is the cache. Use New; the zero value is not ready.
type Store struct {
	mu       sync.Mutex
	results  map[string]sim.Result
	inflight map[string]*flight
	tier     Tier
	stats    Stats
}

// Default is the process-wide store shared by the tkserve service and the
// experiments runner. It grows with the set of distinct configurations
// simulated over the process lifetime.
var Default = New()

// New returns an empty store.
func New() *Store {
	return &Store{
		results:  make(map[string]sim.Result),
		inflight: make(map[string]*flight),
	}
}

// SetTier attaches a durable tier beneath the in-memory map: flights
// consult it before simulating (read-through) and publish fresh
// simulation results into it (write-through). Attach before concurrent
// use; a nil tier detaches.
func (s *Store) SetTier(t Tier) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tier = t
}

// Lookup returns the stored result for key, with no side effects on the
// hit/miss counters.
func (s *Store) Lookup(key string) (sim.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, ok := s.results[key]
	return res, ok
}

// Stats returns an activity snapshot.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.results)
	st.Inflight = len(s.inflight)
	return st
}

// Do returns the result for key, running fn at most once across all
// concurrent callers. fn receives a context that stays live while at
// least one Do caller is still waiting on this key and is cancelled when
// the last of them gives up; ctx going away while others still wait
// detaches this caller only. A caller whose ctx is already done gets a
// stored result as a Hit, and otherwise ctx's error with no outcome: it
// neither joins nor starts a flight.
//
// With a tier attached, the flight checks the tier before calling fn; a
// flight answered from the tier reports Disk to its creator (callers who
// attached mid-flight still report Joined).
func (s *Store) Do(ctx context.Context, key string, fn func(context.Context) (sim.Result, error)) (sim.Result, Outcome, error) {
	return s.DoStaged(ctx, key, fn, nil)
}

// DoStaged is Do with a stage observer: when this call creates the
// flight, onStage receives each completed stage (probe_disk, simulate,
// persist) with its wall extent. Callers that join an existing flight
// never see its stages — the work is attributed to the request that
// started it.
func (s *Store) DoStaged(ctx context.Context, key string, fn func(context.Context) (sim.Result, error), onStage StageFunc) (sim.Result, Outcome, error) {
	s.mu.Lock()
	if res, ok := s.results[key]; ok {
		s.stats.Hits++
		s.mu.Unlock()
		mHits.Inc()
		return res, Hit, nil
	}
	if err := ctx.Err(); err != nil {
		s.mu.Unlock()
		return sim.Result{}, "", err
	}
	outcome := Joined
	f, ok := s.inflight[key]
	if ok {
		s.stats.Joined++
		mJoined.Inc()
	} else {
		outcome = Miss
		fctx, cancel := context.WithCancel(context.Background())
		f = &flight{cancel: cancel, done: make(chan struct{}), onStage: onStage}
		s.inflight[key] = f
		s.stats.Misses++
		mMisses.Inc()
		go s.run(key, f, fctx, fn)
	}
	f.waiters++
	s.mu.Unlock()

	select {
	case <-f.done:
		if outcome == Miss && f.disk {
			outcome = Disk
		}
		return f.res, outcome, f.err
	case <-ctx.Done():
		s.mu.Lock()
		f.waiters--
		if f.waiters == 0 {
			f.cancel()
		}
		s.mu.Unlock()
		return sim.Result{}, outcome, ctx.Err()
	}
}

// run executes one flight — tier read-through first, then the simulation —
// and publishes its result to the in-memory map and (for fresh
// simulations) back through the tier.
func (s *Store) run(key string, f *flight, fctx context.Context, fn func(context.Context) (sim.Result, error)) {
	s.mu.Lock()
	tier := s.tier
	s.mu.Unlock()

	observe := func(stage string, start time.Time) {
		if f.onStage != nil {
			f.onStage(stage, start, time.Now())
		}
	}
	start := time.Now()
	var res sim.Result
	var err error
	fromDisk := false
	if tier != nil {
		t0 := time.Now()
		res, fromDisk = tier.Get(key)
		observe(StageProbeDisk, t0)
	}
	if !fromDisk {
		t0 := time.Now()
		res, err = fn(fctx)
		observe(StageSimulate, t0)
	}
	f.cancel()

	s.mu.Lock()
	f.res, f.err, f.disk = res, err, fromDisk
	delete(s.inflight, key)
	if err == nil {
		s.results[key] = res
		if fromDisk {
			s.stats.DiskHits++
		} else {
			s.stats.Runs++
			s.stats.Refs += res.TotalRefs
			s.stats.Wall += time.Since(start)
		}
	}
	s.mu.Unlock()
	if fromDisk {
		mDiskHits.Inc()
	} else if err == nil && tier != nil {
		// Write-through before waiters wake, so "the job finished" implies
		// "the result is durable" — restart-durability tests and operators
		// can rely on it.
		t0 := time.Now()
		_ = tier.Put(key, res) // tier logs its own failures; losing a write only costs durability
		observe(StagePersist, t0)
	}
	close(f.done)
}
