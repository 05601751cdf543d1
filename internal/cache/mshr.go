package cache

// MSHRFile models a miss-status holding register file: a bounded set of
// outstanding block fetches. Requests to a block that is already
// outstanding merge into the existing entry (and complete when it does);
// new requests when the file is full must wait for the earliest completion.
//
// Entries are retired lazily against the caller's notion of time, which in
// a trace-driven simulator advances (mostly) monotonically with issue
// order.
type MSHRFile struct {
	cap     int
	entries map[uint64]uint64 // block address -> completion cycle
}

// NewMSHRFile returns a file with the given number of registers.
func NewMSHRFile(capacity int) *MSHRFile {
	if capacity < 1 {
		panic("cache: MSHR capacity must be >= 1")
	}
	return &MSHRFile{cap: capacity, entries: make(map[uint64]uint64, capacity)}
}

// retire drops entries that completed at or before now.
func (m *MSHRFile) retire(now uint64) {
	for b, done := range m.entries {
		if done <= now {
			delete(m.entries, b)
		}
	}
}

// Outstanding reports whether a fetch of the block is in flight at now,
// and if so when it completes.
func (m *MSHRFile) Outstanding(block, now uint64) (done uint64, ok bool) {
	done, ok = m.entries[block]
	if ok && done <= now {
		delete(m.entries, block)
		return 0, false
	}
	return done, ok
}

// Allocate reserves an MSHR for a block fetch issued at `now` that will
// complete at `done`. If the file is full, the allocation is delayed until
// the earliest outstanding completion and the returned start time reflects
// that stall. The caller computes `done` from the returned start.
//
// Usage: start := m.Allocate(block, now); done := computeLatency(start);
// m.Commit(block, done).
func (m *MSHRFile) Allocate(block, now uint64) (start uint64) {
	m.retire(now)
	start = now
	for len(m.entries) >= m.cap {
		// Stall until the earliest entry completes.
		var earliest uint64 = ^uint64(0)
		for _, done := range m.entries {
			if done < earliest {
				earliest = done
			}
		}
		start = earliest
		m.retire(earliest)
	}
	return start
}

// Commit records the completion time of a fetch started via Allocate.
func (m *MSHRFile) Commit(block, done uint64) {
	m.entries[block] = done
}

// InFlight returns the number of outstanding entries at now.
func (m *MSHRFile) InFlight(now uint64) int {
	m.retire(now)
	return len(m.entries)
}

// Len returns the number of entries currently held without retiring —
// the in-flight count as of the last call that advanced the file's
// time. Use on hot paths right after an Allocate/Commit pair, where
// retirement has already run and iterating the file again buys nothing.
func (m *MSHRFile) Len() int { return len(m.entries) }

// Cap returns the file's capacity.
func (m *MSHRFile) Cap() int { return m.cap }
