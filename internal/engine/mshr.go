package engine

// soaMSHR is the array-backed counterpart of cache.MSHRFile. The file is
// small (Table 1: 64 demand + 32 prefetch registers) and mostly near
// empty, so linear scans over two parallel arrays beat the reference's
// map iteration — the single hottest site in the reference profile —
// while preserving the exact lazy-retirement semantics.
type soaMSHR struct {
	cap    int
	blocks []uint64
	dones  []uint64
	n      int
}

func newSoaMSHR(capacity int) *soaMSHR {
	if capacity < 1 {
		panic("engine: MSHR capacity must be >= 1")
	}
	return &soaMSHR{
		cap:    capacity,
		blocks: make([]uint64, capacity),
		dones:  make([]uint64, capacity),
	}
}

// clone returns an independent copy of the file.
func (m *soaMSHR) clone() *soaMSHR {
	d := *m
	d.blocks = append([]uint64(nil), m.blocks...)
	d.dones = append([]uint64(nil), m.dones...)
	return &d
}

// remove swap-deletes entry i.
func (m *soaMSHR) remove(i int) {
	m.n--
	m.blocks[i] = m.blocks[m.n]
	m.dones[i] = m.dones[m.n]
}

// retire drops entries that completed at or before now.
func (m *soaMSHR) retire(now uint64) {
	for i := 0; i < m.n; {
		if m.dones[i] <= now {
			m.remove(i)
		} else {
			i++
		}
	}
}

// outstanding mirrors MSHRFile.Outstanding, including its delete-on-
// expiry side effect.
func (m *soaMSHR) outstanding(block, now uint64) (done uint64, ok bool) {
	for i := 0; i < m.n; i++ {
		if m.blocks[i] == block {
			if m.dones[i] <= now {
				m.remove(i)
				return 0, false
			}
			return m.dones[i], true
		}
	}
	return 0, false
}

// allocate mirrors MSHRFile.Allocate: retire, then stall to the earliest
// completion while the file is full.
func (m *soaMSHR) allocate(now uint64) (start uint64) {
	m.retire(now)
	start = now
	for m.n >= m.cap {
		earliest := m.dones[0]
		for i := 1; i < m.n; i++ {
			if m.dones[i] < earliest {
				earliest = m.dones[i]
			}
		}
		start = earliest
		m.retire(earliest)
	}
	return start
}

// commit records a fetch's completion time. Like the reference map, a
// block that is still outstanding (re-missed after eviction) has its
// completion time overwritten, not duplicated.
func (m *soaMSHR) commit(block, done uint64) {
	for i := 0; i < m.n; i++ {
		if m.blocks[i] == block {
			m.dones[i] = done
			return
		}
	}
	if m.n == len(m.blocks) {
		m.blocks = append(m.blocks, 0)
		m.dones = append(m.dones, 0)
	}
	m.blocks[m.n] = block
	m.dones[m.n] = done
	m.n++
}

// inFlight returns the outstanding count at now.
func (m *soaMSHR) inFlight(now uint64) int {
	m.retire(now)
	return m.n
}
