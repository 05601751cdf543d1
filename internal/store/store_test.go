package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"timekeeping/internal/golden"
	"timekeeping/internal/sim"
	"timekeeping/internal/simcache"
	"timekeeping/internal/stats"
	"timekeeping/internal/workload"
)

// testOptions is a fast tracked configuration (a scaled-down golden-corpus
// run) shared by every test needing a real result.
func testOptions() sim.Options {
	opt := golden.CorpusOptions()
	opt.WarmupRefs = 2_000
	opt.MeasureRefs = 8_000
	return opt
}

var (
	resOnce sync.Once
	resVal  sim.Result
	resErr  error
)

// testResult runs one real tracked simulation (cached across tests).
func testResult(t *testing.T) sim.Result {
	t.Helper()
	resOnce.Do(func() {
		resVal, resErr = sim.Run(context.Background(), sim.Spec{Workload: workload.MustProfile("eon"), Opts: testOptions()})
	})
	if resErr != nil {
		t.Fatalf("simulating test result: %v", resErr)
	}
	return resVal
}

func testKey() string { return simcache.Key("eon", testOptions()) }

// fakeKey fabricates a distinct well-formed content address.
func fakeKey(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("fake-%d", i)))
	return hex.EncodeToString(sum[:])
}

func openStore(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	res := testResult(t)
	s := openStore(t, t.TempDir(), Options{})
	key := testKey()

	if _, ok := s.Get(key); ok {
		t.Fatal("Get before Put returned an entry")
	}
	if err := s.Put(key, res); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("Get after Put missed")
	}

	// Fidelity: every derived statistic the golden corpus records must
	// survive the disk round trip — including the tracker's histogram
	// internals and decay tallies, which plain JSON would have dropped.
	if drift := golden.Diff(golden.EntryOf("eon", testOptions(), got), golden.EntryOf("eon", testOptions(), res)); drift != "" {
		t.Fatalf("result drifted through the store: %s", drift)
	}
	if got.IPC() != res.IPC() {
		t.Fatalf("IPC drift: %v != %v", got.IPC(), res.IPC())
	}
	if got.Tracker.Live.Mean() != res.Tracker.Live.Mean() {
		t.Fatal("tracker live-time mean drifted")
	}

	st := s.Stats()
	if st.Entries != 1 || st.Writes != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Bytes <= 0 {
		t.Fatalf("bytes not accounted: %+v", st)
	}
}

func TestReopenServesFromDisk(t *testing.T) {
	res := testResult(t)
	dir := t.TempDir()
	key := testKey()

	s1 := openStore(t, dir, Options{})
	if err := s1.Put(key, res); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openStore(t, dir, Options{})
	if st := s2.Stats(); st.Entries != 1 {
		t.Fatalf("reopened store indexed %d entries, want 1", st.Entries)
	}
	got, ok := s2.Get(key)
	if !ok {
		t.Fatal("reopened store missed a persisted key")
	}
	if got.Bench != "eon" || got.TotalRefs != res.TotalRefs {
		t.Fatalf("reopened entry drifted: bench=%q total=%d", got.Bench, got.TotalRefs)
	}
}

func TestRejectsInvalidKey(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	for _, key := range []string{"", "abc", strings.Repeat("z", 64), "../../etc/passwd"} {
		if err := s.Put(key, testResult(t)); err == nil {
			t.Errorf("Put(%q) accepted", key)
		}
	}
}

// corruptEntry rewrites the entry file for key with the given bytes.
func corruptEntry(t *testing.T, s *Store, key string, blob []byte) {
	t.Helper()
	if err := os.WriteFile(s.objectPath(key), blob, 0o644); err != nil {
		t.Fatalf("corrupting entry: %v", err)
	}
}

// rewriteEnvelope loads the entry for key, applies mutate, and writes it
// back with (by default) a recomputed valid structure.
func rewriteEnvelope(t *testing.T, s *Store, key string, mutate func(*envelope)) {
	t.Helper()
	blob, err := os.ReadFile(s.objectPath(key))
	if err != nil {
		t.Fatalf("reading entry: %v", err)
	}
	var env envelope
	if err := json.Unmarshal(blob, &env); err != nil {
		t.Fatalf("decoding entry: %v", err)
	}
	mutate(&env)
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatalf("re-encoding entry: %v", err)
	}
	corruptEntry(t, s, key, out)
}

func TestQuarantine(t *testing.T) {
	res := testResult(t)
	key := testKey()
	resum := func(payload []byte) string {
		sum := sha256.Sum256(payload)
		return hex.EncodeToString(sum[:])
	}

	cases := []struct {
		name    string
		corrupt func(t *testing.T, s *Store)
	}{
		{"truncated", func(t *testing.T, s *Store) {
			blob, err := os.ReadFile(s.objectPath(key))
			if err != nil {
				t.Fatal(err)
			}
			corruptEntry(t, s, key, blob[:len(blob)/2])
		}},
		{"bit flip", func(t *testing.T, s *Store) {
			rewriteEnvelope(t, s, key, func(env *envelope) {
				// Flip a digit inside the payload without re-checksumming.
				env.Payload = json.RawMessage(strings.Replace(string(env.Payload), `"TotalRefs":`, `"TotalRefs":1`, 1))
			})
		}},
		{"schema version", func(t *testing.T, s *Store) {
			rewriteEnvelope(t, s, key, func(env *envelope) { env.Schema = SchemaVersion + 1 })
		}},
		{"key mismatch", func(t *testing.T, s *Store) {
			rewriteEnvelope(t, s, key, func(env *envelope) { env.Key = fakeKey(0) })
		}},
		{"stale payload schema", func(t *testing.T, s *Store) {
			rewriteEnvelope(t, s, key, func(env *envelope) {
				var m map[string]json.RawMessage
				if err := json.Unmarshal(env.Payload, &m); err != nil {
					t.Fatal(err)
				}
				m["retired_field"] = json.RawMessage(`42`)
				p, err := json.Marshal(m)
				if err != nil {
					t.Fatal(err)
				}
				env.Payload, env.Checksum = p, resum(p)
			})
		}},
		{"invariant violation", func(t *testing.T, s *Store) {
			rewriteEnvelope(t, s, key, func(env *envelope) {
				broken := res
				broken.TotalRefs = 0
				p, err := json.Marshal(broken)
				if err != nil {
					t.Fatal(err)
				}
				env.Payload, env.Checksum = p, resum(p)
			})
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := openStore(t, t.TempDir(), Options{})
			if err := s.Put(key, res); err != nil {
				t.Fatalf("Put: %v", err)
			}
			tc.corrupt(t, s)

			if _, ok := s.Get(key); ok {
				t.Fatal("corrupt entry was served")
			}
			st := s.Stats()
			if st.Quarantined != 1 {
				t.Fatalf("quarantined %d entries, want 1", st.Quarantined)
			}
			if st.Entries != 0 {
				t.Fatalf("corrupt entry still indexed: %+v", st)
			}
			if _, err := os.Stat(filepath.Join(s.Dir(), quarantineDir, key+".json")); err != nil {
				t.Fatalf("quarantined file missing: %v", err)
			}
			// The key recomputes cleanly: a fresh Put replaces it.
			if err := s.Put(key, res); err != nil {
				t.Fatalf("Put after quarantine: %v", err)
			}
			if _, ok := s.Get(key); !ok {
				t.Fatal("Get after re-Put missed")
			}
		})
	}
}

func TestCrashedWriterTempQuarantinedOnOpen(t *testing.T) {
	res := testResult(t)
	dir := t.TempDir()
	key := testKey()

	s1 := openStore(t, dir, Options{})
	if err := s1.Put(key, res); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Simulate a writer killed mid-entry: a truncated temp file that never
	// reached its rename.
	blob, err := os.ReadFile(s1.objectPath(key))
	if err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(filepath.Dir(s1.objectPath(key)), tmpPrefix+key+"-12345")
	if err := os.WriteFile(orphan, blob[:len(blob)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	st := s2.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("restart quarantined %d files, want 1 (the orphaned temp)", st.Quarantined)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("orphaned temp file still in objects directory")
	}
	// The committed entry is unaffected.
	if _, ok := s2.Get(key); !ok {
		t.Fatal("intact entry lost during crash recovery")
	}
}

func TestSingleWriterLock(t *testing.T) {
	dir := t.TempDir()
	s1 := openStore(t, dir, Options{})

	if _, err := Open(dir, Options{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open: got %v, want ErrLocked", err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	s2.Close()
}

func TestLRUEviction(t *testing.T) {
	res := testResult(t)
	dir := t.TempDir()

	// Size one entry, then cap the store at three.
	probe := openStore(t, dir, Options{})
	if err := probe.Put(fakeKey(0), res); err != nil {
		t.Fatal(err)
	}
	entrySize := probe.Stats().Bytes
	probe.Close()

	s := openStore(t, dir, Options{MaxBytes: 3*entrySize + entrySize/2})
	for i := 1; i <= 2; i++ {
		if err := s.Put(fakeKey(i), res); err != nil {
			t.Fatal(err)
		}
	}
	// Touch key 0 so key 1 is now least recently used.
	if _, ok := s.Get(fakeKey(0)); !ok {
		t.Fatal("warm Get missed")
	}
	if err := s.Put(fakeKey(3), res); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("stats after eviction: %+v", st)
	}
	if _, ok := s.Get(fakeKey(1)); ok {
		t.Fatal("LRU entry survived eviction")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := s.Get(fakeKey(i)); !ok {
			t.Fatalf("recently used entry %d evicted", i)
		}
	}
	if _, err := os.Stat(s.objectPath(fakeKey(1))); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("evicted entry file still on disk")
	}
}

// TestGetLatencyP99 enforces the serving-latency budget: disk-tier hits
// must complete in at most 5ms at the 99th percentile for golden-corpus
// sized entries.
func TestGetLatencyP99(t *testing.T) {
	res := testResult(t)
	s := openStore(t, t.TempDir(), Options{})
	const entries = 30
	for i := 0; i < entries; i++ {
		if err := s.Put(fakeKey(i), res); err != nil {
			t.Fatal(err)
		}
	}
	const lookups = 300
	lat := make([]float64, 0, lookups)
	for i := 0; i < lookups; i++ {
		start := time.Now()
		if _, ok := s.Get(fakeKey(i % entries)); !ok {
			t.Fatal("warm Get missed")
		}
		lat = append(lat, time.Since(start).Seconds())
	}
	p99 := stats.Percentile(lat, 99)
	t.Logf("disk-tier Get: p50=%.3fms p99=%.3fms over %d lookups", stats.Percentile(lat, 50)*1e3, p99*1e3, lookups)
	if raceEnabled {
		t.Skip("latency budget asserted without the race detector")
	}
	if p99 > 0.005 {
		t.Fatalf("disk-tier hit p99 %.3fms exceeds the 5ms budget", p99*1e3)
	}
}

func BenchmarkStoreGet(b *testing.B) {
	opt := testOptions()
	res, err := sim.Run(context.Background(), sim.Spec{Workload: workload.MustProfile("eon"), Opts: opt})
	if err != nil {
		b.Fatal(err)
	}
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	key := simcache.Key("eon", opt)
	if err := s.Put(key, res); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(key); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkStorePut(b *testing.B) {
	opt := testOptions()
	res, err := sim.Run(context.Background(), sim.Spec{Workload: workload.MustProfile("eon"), Opts: opt})
	if err != nil {
		b.Fatal(err)
	}
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(fakeKey(i%64), res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreColdRun is the cold path a disk hit replaces: simulate
// the configuration and persist the result. Contrast with
// BenchmarkStoreWarmRestart in the BENCH_store.txt CI artifact.
func BenchmarkStoreColdRun(b *testing.B) {
	opt := testOptions()
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	spec := workload.MustProfile("eon")
	key := simcache.Key("eon", opt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(context.Background(), sim.Spec{Workload: spec, Opts: opt})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Put(key, res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreWarmRestart is the restart-warm path: a fresh in-memory
// cache (as a new process has) resolving a known configuration through a
// populated disk tier — no simulation runs.
func BenchmarkStoreWarmRestart(b *testing.B) {
	opt := testOptions()
	res, err := sim.Run(context.Background(), sim.Spec{Workload: workload.MustProfile("eon"), Opts: opt})
	if err != nil {
		b.Fatal(err)
	}
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	key := simcache.Key("eon", opt)
	if err := s.Put(key, res); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := simcache.New()
		c.SetTier(s)
		_, outcome, err := c.Do(context.Background(), key, func(context.Context) (sim.Result, error) {
			return sim.Result{}, errors.New("warm path fell through to simulation")
		})
		if err != nil || outcome != simcache.Disk {
			b.Fatalf("outcome %v err %v, want disk hit", outcome, err)
		}
	}
}
