// Package bus models the shared interconnects of Table 1 — the 32-byte
// L1/L2 bus clocked at the CPU rate and the 64-byte L2/memory bus at 1/5
// the CPU rate — as occupancy servers: each transfer holds the bus for
// ceil(bytes/width) bus cycles, and later transfers queue behind earlier
// ones.
//
// As in the paper's methodology (which adopted the contention models of
// Lai et al.), demand requests have priority over prefetches: a prefetch
// may only start when the bus is idle and must additionally yield a
// configurable headroom window so it never delays a demand that arrives
// just behind it.
package bus

// Bus is a single shared bus; all transfers share one capacity pool. The
// zero value is not usable; construct with New. Demand priority over
// prefetches (the paper's arbitration rule) is realised by admission
// control: see CanPrefetch.
type Bus struct {
	widthBytes   uint64
	cpuPerBus    uint64 // CPU cycles per bus cycle
	freeAt       uint64 // next idle instant considering all traffic
	demandFreeAt uint64 // next idle instant considering demand traffic only

	// Stats.
	demandXfers   uint64
	prefetchXfers uint64
	busyCycles    uint64
}

// New returns a bus `widthBytes` wide whose bus cycle lasts cpuCyclesPerBus
// CPU cycles.
func New(widthBytes, cpuCyclesPerBus uint64) *Bus {
	if widthBytes == 0 || cpuCyclesPerBus == 0 {
		panic("bus: width and clock ratio must be positive")
	}
	return &Bus{widthBytes: widthBytes, cpuPerBus: cpuCyclesPerBus}
}

// occupancy returns the CPU cycles a transfer of n bytes holds the bus.
func (b *Bus) occupancy(bytes uint64) uint64 {
	busCycles := (bytes + b.widthBytes - 1) / b.widthBytes
	if busCycles == 0 {
		busCycles = 1
	}
	return busCycles * b.cpuPerBus
}

// Demand acquires the bus for a demand transfer of `bytes` at `now`,
// returning when the transfer starts and when it completes.
func (b *Bus) Demand(now, bytes uint64) (start, done uint64) {
	start = now
	if b.freeAt > start {
		start = b.freeAt
	}
	occ := b.occupancy(bytes)
	done = start + occ
	b.freeAt = done
	b.demandFreeAt = done
	b.demandXfers++
	b.busyCycles += occ
	return start, done
}

// Prefetch acquires the bus for a prefetch transfer. Prefetches share the
// same capacity pool as demands; callers enforce priority by admitting
// prefetches only when CanPrefetch says the bus has spare capacity, so a
// prefetch burst can never build a backlog in front of demand traffic.
func (b *Bus) Prefetch(now, bytes uint64) (start, done uint64) {
	start = now
	if b.freeAt > start {
		start = b.freeAt
	}
	occ := b.occupancy(bytes)
	done = start + occ
	b.freeAt = done
	b.prefetchXfers++
	b.busyCycles += occ
	return start, done
}

// CanPrefetch reports whether a prefetch may be admitted at `now`: the
// bus backlog must be at most maxLag cycles. This implements the paper's
// demand-over-prefetch priority without an event-driven arbiter — a
// waiting prefetch can delay a later demand by at most one transfer.
func (b *Bus) CanPrefetch(now, maxLag uint64) bool {
	return b.freeAt <= now+maxLag
}

// FreeAt returns the cycle at which the bus next becomes idle.
func (b *Bus) FreeAt() uint64 { return b.freeAt }

// Stats returns the transfer counts and total busy CPU cycles.
func (b *Bus) Stats() (demand, prefetch, busy uint64) {
	return b.demandXfers, b.prefetchXfers, b.busyCycles
}

// Reset clears state and statistics.
func (b *Bus) Reset() {
	b.freeAt = 0
	b.demandFreeAt = 0
	b.demandXfers = 0
	b.prefetchXfers = 0
	b.busyCycles = 0
}
