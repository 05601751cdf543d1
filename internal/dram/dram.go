// Package dram models main memory as a fixed-latency sink behind the
// L2/memory bus, per Table 1 ("Memory Latency: 70 cycles"). Bank-level
// detail is deliberately omitted: the paper's experiments are shaped by
// the 70-cycle exposed latency and the bus contention in front of it, both
// of which are modelled, not by DRAM page behaviour, which is not.
package dram

// Memory is a fixed-latency main memory.
type Memory struct {
	latency  uint64
	accesses uint64
}

// New returns a memory with the given access latency in CPU cycles.
func New(latency uint64) *Memory {
	return &Memory{latency: latency}
}

// Access starts a block read/write at `now` and returns its completion.
func (m *Memory) Access(now uint64) (done uint64) {
	m.accesses++
	return now + m.latency
}

// Latency returns the configured access latency.
func (m *Memory) Latency() uint64 { return m.latency }

// Accesses returns the number of accesses served.
func (m *Memory) Accesses() uint64 { return m.accesses }

// Reset clears statistics.
func (m *Memory) Reset() { m.accesses = 0 }
