// Package store is the disk-backed, content-addressed result tier beneath
// the in-memory simcache: every simulation result is persisted as one
// canonical-JSON entry keyed by the simcache SHA-256 key, so a restarted
// process (or a sibling CLI pointed at the same directory) answers
// previously computed configurations from disk instead of re-simulating.
// The entry's payload is the result's JSON except for its tracker, which
// is held in core.Metrics' compact binary form: decoding the tracker's
// histograms as JSON was most of the cost of a disk hit.
//
// Durability and integrity rules, in order of importance:
//
//   - Entries are written atomically: the payload goes to a temp file in
//     the same directory, is fsynced, and is renamed into place. Readers
//     never observe a partial entry under its final name.
//   - Every entry carries a schema version and a SHA-256 checksum of its
//     payload. An entry that fails any load-time check — unreadable
//     envelope, schema mismatch, key mismatch, checksum mismatch, payload
//     that does not decode strictly as a sim.Result (unknown fields,
//     trailing data, a tracker whose binary form does not decode exactly)
//     or violates its basic invariants — is quarantined (moved aside,
//     never served, counted in store_quarantined_total) and the key
//     recomputes cleanly.
//   - One writer per directory: Open takes an exclusive flock on a LOCK
//     file and fails fast when another process holds the store.
//
// The on-disk footprint is bounded by Options.MaxBytes with LRU eviction
// ordered by an in-memory access-time index (seeded from file mtimes at
// Open, advanced on every Get).
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"timekeeping/internal/core"
	"timekeeping/internal/obs"
	"timekeeping/internal/sim"
)

// SchemaVersion is the entry envelope version. Bump it whenever the
// envelope layout, the payload layout, the sim.Result JSON schema or the
// core.Metrics binary form changes incompatibly; entries written under
// any other version are quarantined on load. Version 2 holds the tracker
// in its binary form; version 1 held it as JSON.
const SchemaVersion = 2

const (
	objectsDir    = "objects"
	quarantineDir = "quarantine"
	lockFile      = "LOCK"
	tmpPrefix     = ".tmp-"
)

// Store-level metrics, process-wide so /metrics reports them at zero
// before the first access.
var (
	mHits        = obs.Default.Counter("store_hits_total")
	mMisses      = obs.Default.Counter("store_misses_total")
	mWrites      = obs.Default.Counter("store_writes_total")
	mEvictions   = obs.Default.Counter("store_evictions_total")
	mQuarantined = obs.Default.Counter("store_quarantined_total")
	mGetSeconds  = obs.Default.Histogram("store_get_seconds",
		[]float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1})
)

// envelope is the on-disk entry format: a versioned wrapper whose payload
// holds one sim.Result (see payload). Put writes the payload as the last
// field, and reads rely on it (see splitEnvelope).
type envelope struct {
	Schema int    `json:"schema"`
	Key    string `json:"key"`
	Bench  string `json:"bench"`
	// Checksum is the hex SHA-256 of the raw Payload bytes.
	Checksum string          `json:"checksum"`
	Payload  json.RawMessage `json:"payload"`
}

// Options configures a Store.
type Options struct {
	// MaxBytes caps the total size of stored entries; 0 means unlimited.
	// When a write pushes the store past the cap, least-recently-used
	// entries are evicted until it fits.
	MaxBytes int64
	// Logger receives operational warnings (quarantines, write failures).
	// nil discards them.
	Logger *slog.Logger
}

// Stats is a point-in-time snapshot of store activity since Open.
type Stats struct {
	Entries     int   // entries currently on disk
	Bytes       int64 // total size of stored entries
	Hits        uint64
	Misses      uint64
	Writes      uint64
	WriteErrors uint64
	Evictions   uint64
	Quarantined uint64
}

// entryInfo is the in-memory index record for one on-disk entry.
type entryInfo struct {
	size  int64
	atime uint64 // logical access clock, larger = more recent
}

// Store is one opened result directory. Use Open; the zero value is not
// usable. Store is safe for concurrent use within a process; cross-process
// exclusion is enforced by the directory lock.
type Store struct {
	dir      string
	maxBytes int64
	log      *slog.Logger
	lock     *dirLock

	mu    sync.Mutex
	index map[string]*entryInfo
	bytes int64
	clock uint64
	stats Stats
}

// Open opens (creating if necessary) the result store rooted at dir. It
// acquires the directory's single-writer lock, sweeps crash leftovers
// (orphaned temp files are quarantined), and indexes existing entries for
// LRU accounting. Close releases the lock.
func Open(dir string, opt Options) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, objectsDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	lock, err := acquireDirLock(filepath.Join(dir, lockFile))
	if err != nil {
		return nil, err
	}
	log := opt.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Store{
		dir:      dir,
		maxBytes: opt.MaxBytes,
		log:      log,
		lock:     lock,
		index:    make(map[string]*entryInfo),
	}
	if err := s.scan(); err != nil {
		lock.release()
		return nil, err
	}
	return s, nil
}

// scan builds the LRU index from the objects directory, quarantining
// orphaned temp files left by a crashed writer.
func (s *Store) scan() error {
	type found struct {
		key   string
		size  int64
		mtime time.Time
	}
	var entries []found
	root := filepath.Join(s.dir, objectsDir)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if strings.HasPrefix(name, tmpPrefix) {
			// A writer died between create and rename; the entry under
			// its final name (if any) is intact, this partial is not.
			s.quarantineFile(path, "orphaned temp file")
			return nil
		}
		key, ok := strings.CutSuffix(name, ".json")
		if !ok || !validKey(key) {
			s.log.Warn("store: ignoring foreign file", "path", path)
			return nil
		}
		fi, err := d.Info()
		if err != nil {
			return nil
		}
		entries = append(entries, found{key: key, size: fi.Size(), mtime: fi.ModTime()})
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: scanning %s: %w", root, err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime.Before(entries[j].mtime) })
	for _, e := range entries {
		s.clock++
		s.index[e.key] = &entryInfo{size: e.size, atime: s.clock}
		s.bytes += e.size
	}
	return nil
}

// Close releases the store's directory lock. The Store must not be used
// afterwards.
func (s *Store) Close() error {
	if s == nil || s.lock == nil {
		return nil
	}
	err := s.lock.release()
	s.lock = nil
	return err
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns an activity snapshot.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.index)
	st.Bytes = s.bytes
	return st
}

// Keys returns every indexed entry key, sorted.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.index))
	for k := range s.index {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Get returns the stored result for key. A stored entry that fails
// validation is quarantined and reported as a miss; the caller recomputes
// and the next Put replaces it.
func (s *Store) Get(key string) (sim.Result, bool) {
	start := time.Now()
	s.mu.Lock()
	info, ok := s.index[key]
	if !ok {
		s.stats.Misses++
		s.mu.Unlock()
		mMisses.Inc()
		return sim.Result{}, false
	}
	s.clock++
	info.atime = s.clock
	s.mu.Unlock()

	blob, err := os.ReadFile(s.objectPath(key))
	if err != nil {
		s.quarantineEntry(key, fmt.Sprintf("unreadable: %v", err))
		return sim.Result{}, false
	}
	res, err := decodeEntry(key, blob)
	if err != nil {
		s.quarantineEntry(key, err.Error())
		return sim.Result{}, false
	}
	s.mu.Lock()
	s.stats.Hits++
	s.mu.Unlock()
	mHits.Inc()
	mGetSeconds.Observe(time.Since(start).Seconds())
	return res, true
}

// Put persists the result under key, atomically replacing any existing
// entry, then evicts least-recently-used entries if the store exceeds its
// size cap. Errors are returned for callers that care (the simcache tier
// logs and continues — a failed write only costs durability).
func (s *Store) Put(key string, res sim.Result) error {
	if err := s.put(key, res); err != nil {
		s.mu.Lock()
		s.stats.WriteErrors++
		s.mu.Unlock()
		s.log.Warn("store: write failed", "key", key, "err", err)
		return err
	}
	return nil
}

func (s *Store) put(key string, res sim.Result) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	payload, err := encodePayload(res)
	if err != nil {
		return fmt.Errorf("store: encoding result: %w", err)
	}
	sum := sha256.Sum256(payload)
	blob, err := json.Marshal(envelope{
		Schema:   SchemaVersion,
		Key:      key,
		Bench:    res.Bench,
		Checksum: hex.EncodeToString(sum[:]),
		Payload:  payload,
	})
	if err != nil {
		return fmt.Errorf("store: encoding entry: %w", err)
	}

	final := s.objectPath(key)
	dir := filepath.Dir(final)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, tmpPrefix+key+"-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(blob); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, final)
	}
	if err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: writing %s: %w", key, err)
	}

	size := int64(len(blob))
	s.mu.Lock()
	if old, ok := s.index[key]; ok {
		s.bytes -= old.size
	}
	s.clock++
	s.index[key] = &entryInfo{size: size, atime: s.clock}
	s.bytes += size
	s.stats.Writes++
	evicted := s.evictLocked()
	s.mu.Unlock()
	mWrites.Inc()
	for _, k := range evicted {
		os.Remove(s.objectPath(k))
		mEvictions.Inc()
	}
	return nil
}

// evictLocked drops least-recently-used index entries until the store fits
// its cap, returning the evicted keys for the caller to unlink outside the
// lock. Called with s.mu held.
func (s *Store) evictLocked() []string {
	if s.maxBytes <= 0 {
		return nil
	}
	var evicted []string
	for s.bytes > s.maxBytes && len(s.index) > 1 {
		var oldest string
		var oldestAt uint64
		for k, info := range s.index {
			if oldest == "" || info.atime < oldestAt {
				oldest, oldestAt = k, info.atime
			}
		}
		s.bytes -= s.index[oldest].size
		delete(s.index, oldest)
		s.stats.Evictions++
		evicted = append(evicted, oldest)
	}
	return evicted
}

// quarantineEntry moves an indexed entry aside so it is never served again.
func (s *Store) quarantineEntry(key, reason string) {
	s.mu.Lock()
	if info, ok := s.index[key]; ok {
		s.bytes -= info.size
		delete(s.index, key)
	}
	s.stats.Misses++
	s.mu.Unlock()
	mMisses.Inc()
	s.quarantineFile(s.objectPath(key), reason)
}

// quarantineFile moves path into the quarantine directory (removing it
// outright if the move fails) and counts the event.
func (s *Store) quarantineFile(path, reason string) {
	dst := filepath.Join(s.dir, quarantineDir, filepath.Base(path))
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path)
	}
	s.mu.Lock()
	s.stats.Quarantined++
	s.mu.Unlock()
	mQuarantined.Inc()
	s.log.Warn("store: entry quarantined", "path", path, "reason", reason)
}

// objectPath returns the entry path for key, fanned out by the key's first
// byte to keep directories small.
func (s *Store) objectPath(key string) string {
	return filepath.Join(s.dir, objectsDir, key[:2], key+".json")
}

// validKey reports whether key is a well-formed simcache content address
// (64 hex characters) — anything else would not have come from
// simcache.Key and could escape the objects directory.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// decodeEntry validates one on-disk entry end to end and returns its
// payload. Every failure mode maps to quarantine in the caller.
func decodeEntry(key string, blob []byte) (sim.Result, error) {
	env, err := splitEnvelope(blob)
	if err != nil {
		return sim.Result{}, fmt.Errorf("corrupt envelope: %v", err)
	}
	if env.Schema != SchemaVersion {
		return sim.Result{}, fmt.Errorf("schema %d, want %d", env.Schema, SchemaVersion)
	}
	if env.Key != key {
		return sim.Result{}, fmt.Errorf("entry key %.16s... does not match file key", env.Key)
	}
	sum := sha256.Sum256(env.Payload)
	if hex.EncodeToString(sum[:]) != env.Checksum {
		return sim.Result{}, errors.New("payload checksum mismatch")
	}
	res, err := decodePayload(env.Payload)
	if err != nil {
		return sim.Result{}, fmt.Errorf("stale or invalid payload schema: %v", err)
	}
	if err := validateResult(&res); err != nil {
		return sim.Result{}, err
	}
	return res, nil
}

// payloadField introduces the payload, the last field of the envelope
// that Put writes.
var payloadField = []byte(`,"payload":`)

// splitEnvelope decodes an entry's envelope. The payload is nearly all of
// an entry, so rather than scan it twice as part of the envelope, this
// cuts the entry at payloadField: the JSON before it, closed with a brace,
// is decoded as the envelope's other fields, and the bytes after it up to
// the entry's closing brace are the payload, which decodePayload checks is
// exactly one JSON value. An envelope laid out any other way than Put
// writes it is refused.
func splitEnvelope(blob []byte) (envelope, error) {
	var env envelope
	i := bytes.Index(blob, payloadField)
	if i < 0 || blob[len(blob)-1] != '}' {
		return env, errors.New("no payload as the last field")
	}
	if err := json.Unmarshal(append(blob[:i:i], '}'), &env); err != nil {
		return env, err
	}
	env.Payload = blob[i+len(payloadField) : len(blob)-1]
	return env, nil
}

// payload is an entry's payload: one sim.Result whose Tracker field holds
// the base64 of core.Metrics' binary form. The field shadows
// Result.Tracker, so encoding/json promotes every other Result field
// unchanged.
type payload struct {
	sim.Result
	Tracker []byte
}

// encodePayload returns res's payload bytes.
func encodePayload(res sim.Result) ([]byte, error) {
	p := payload{Result: res}
	if res.Tracker != nil {
		tracker, err := res.Tracker.MarshalBinary()
		if err != nil {
			return nil, err
		}
		p.Tracker = tracker
	}
	return json.Marshal(p)
}

// decodePayload decodes payload bytes strictly: unknown fields, trailing
// data, a tracker whose binary form does not decode exactly, and a second
// tracker field after the one lifted out are all errors.
func decodePayload(data []byte) (sim.Result, error) {
	tracker, data, err := liftTracker(data)
	if err != nil {
		return sim.Result{}, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p payload
	if err := dec.Decode(&p); err != nil {
		return sim.Result{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return sim.Result{}, errors.New("trailing data after the result")
	}
	if p.Tracker != nil {
		return sim.Result{}, errors.New("a second Tracker field")
	}
	res := p.Result
	if tracker != nil {
		bin := make([]byte, base64.StdEncoding.DecodedLen(len(tracker)))
		n, err := base64.StdEncoding.Decode(bin, tracker)
		if err != nil {
			return sim.Result{}, fmt.Errorf("tracker: %v", err)
		}
		res.Tracker = new(core.Metrics)
		if err := res.Tracker.UnmarshalBinary(bin[:n]); err != nil {
			return sim.Result{}, err
		}
	}
	return res, nil
}

// trackerKey introduces the tracker's value in a payload.
var trackerKey = []byte(`"Tracker":`)

// liftTracker returns the payload's tracker string, nil when the tracker
// is null or absent, and the payload with that string replaced by null.
// The string is nearly all of a payload, and lifting it out keeps
// encoding/json from scanning it. encoding/json writes a []byte as a
// base64 string, which needs no quote or escape, so the string ends at
// the next quote. Every byte that base64 decoding accepts may stand raw
// in a JSON string except the line breaks it skips; those are refused
// here.
func liftTracker(data []byte) (tracker, rest []byte, err error) {
	k := bytes.Index(data, trackerKey)
	if k < 0 {
		return nil, data, nil
	}
	i := k + len(trackerKey)
	if i == len(data) || data[i] != '"' {
		return nil, data, nil
	}
	n := bytes.IndexByte(data[i+1:], '"')
	if n < 0 {
		return nil, nil, errors.New("unterminated Tracker string")
	}
	tracker = data[i+1 : i+1+n]
	if bytes.IndexByte(tracker, '\n') >= 0 || bytes.IndexByte(tracker, '\r') >= 0 {
		return nil, nil, errors.New("line break in the Tracker string")
	}
	rest = make([]byte, 0, len(data)-n+2)
	rest = append(append(append(rest, data[:i]...), "null"...), data[i+n+2:]...)
	return tracker, rest, nil
}

// validateResult checks the invariants every golden-corpus result
// satisfies; a violating entry is served to no one.
func validateResult(res *sim.Result) error {
	switch {
	case res.Bench == "":
		return errors.New("result missing benchmark name")
	case res.CPU.Refs == 0 || res.CPU.Cycles == 0:
		return errors.New("result has an empty measurement window")
	case res.TotalRefs < res.CPU.Refs:
		return fmt.Errorf("total refs %d < measured refs %d", res.TotalRefs, res.CPU.Refs)
	}
	return nil
}
