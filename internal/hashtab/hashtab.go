// Package hashtab is the simulator's insert-only hash table from uint64
// keys to inline values. It holds the per-key state that outlives a cache
// line: the miss classifier's set of blocks ever seen, the timekeeping
// tracker's per-block history and the phase profiler's per-region counts.
//
// A Table is open-addressed with linear probing and stores each value
// inline beside its key, so a probe and the reads that follow it share a
// cache line; no Go map, hash-interface call or per-entry allocation sits
// on the hot path. Keys are never deleted, so a zero key marks an empty
// slot and probes never need tombstones; key 0, a real key, is held out
// of band.
//
// A table may be told how many keys to expect (Expect). It still starts
// small, so a short fill allocates no more than an untold table, but its
// first grow goes straight to a size that holds the expected keys, so a
// long fill does not leave a chain of outgrown arrays behind it.
package hashtab

import "unsafe"

// Hash mixes a key into a table index: Fibonacci hashing with the high
// half folded down, since block and region keys are aligned and their low
// bits are constant.
func Hash(key uint64) uint64 {
	x := key * 0x9e3779b97f4a7c15
	return x ^ x>>32
}

// slot holds the value before the key: with a zero-size value, a
// key-first layout would pad every slot to 16 bytes.
type slot[V any] struct {
	val V
	key uint64 // 0 marks an empty slot
}

// Table is an insert-only open-addressed map from uint64 keys to values
// of type V. It allocates its slots on the first insert of a nonzero key
// and doubles them at 3/4 load, or grows straight to the size that holds
// the keys Expect named when doubling would fall short of it. Capacity
// and probe order show only in Slots, Bytes, Touch, a stale index given
// to At and the order of Range. The zero value is an empty table that
// expects nothing and whose first insert allocates 16 slots.
type Table[V any] struct {
	slots []slot[V]
	mask  uint64
	n     int // keys held in slots; key 0 is not counted
	first int // slots the first insert allocates
	fit   int // slots that hold the expected keys; 0 when none are
	zero  V   // key 0's value, held out of band
	has0  bool
}

// New returns an empty table whose first insert allocates first slots,
// rounded up to a power of two of at least 16. It allocates nothing
// itself.
func New[V any](first int) Table[V] {
	c := 16
	for c < first {
		c <<= 1
	}
	return Table[V]{first: c}
}

// Expect tells the table to expect n keys. Its first allocation keeps
// its size, but no grow then stops short of the smallest power of two
// whose 3/4 load exceeds n, so a fill of n keys grows at most once. An n
// of 0 or less, or one no table could hold, expects nothing: the table
// doubles from its first size. A wrong n costs memory or one more grow,
// never a result.
func (t *Table[V]) Expect(n int) {
	t.fit = 0
	for c := 16; n > 0 && c > 0; c <<= 1 {
		if c-c/4 > n {
			t.fit = c
			return
		}
	}
}

// Put returns key's value, inserting a zero value if key is absent, with
// the index of the slot that holds it and whether it was just added. The
// pointer and the index stay valid until the next Put, which may grow the
// table; key 0's index is always 0 and names no slot.
func (t *Table[V]) Put(key uint64) (v *V, i uint32, added bool) {
	if key == 0 {
		added = !t.has0
		t.has0 = true
		return &t.zero, 0, added
	}
	if t.n >= len(t.slots)-len(t.slots)/4 {
		t.grow()
	}
	j := Hash(key) & t.mask
	for {
		s := &t.slots[j]
		if s.key == key {
			return &s.val, uint32(j), false
		}
		if s.key == 0 {
			s.key = key
			t.n++
			return &s.val, uint32(j), true
		}
		j = (j + 1) & t.mask
	}
}

// At returns key's value when slot i holds key, and nil otherwise; for
// key 0 it returns the out-of-band value, if present, whatever i. i must
// be an index Put returned for key, which a grow since then may have
// moved: keys are stored at most once, so a slot that holds key is key's.
func (t *Table[V]) At(i uint32, key uint64) *V {
	if key == 0 {
		if t.has0 {
			return &t.zero
		}
		return nil
	}
	if t.slots[i].key == key {
		return &t.slots[i].val
	}
	return nil
}

func (t *Table[V]) grow() {
	old := t.slots
	c := max(2*len(old), t.first, 16)
	if old != nil {
		c = max(c, t.fit)
	}
	t.slots = make([]slot[V], c)
	t.mask = uint64(c - 1)
	for i := range old {
		k := old[i].key
		if k == 0 {
			continue
		}
		j := Hash(k) & t.mask
		for t.slots[j].key != 0 {
			j = (j + 1) & t.mask
		}
		t.slots[j] = old[i]
	}
}

// Range calls f for every key and its value: key 0 first, then the rest
// in slot order. f must not Put.
func (t *Table[V]) Range(f func(key uint64, v *V)) {
	if t.has0 {
		f(0, &t.zero)
	}
	for i := range t.slots {
		if t.slots[i].key != 0 {
			f(t.slots[i].key, &t.slots[i].val)
		}
	}
}

// Reset empties the table and keeps its slots for the next fill. It
// clears the slots only when a key is held there.
func (t *Table[V]) Reset() {
	if t.n > 0 {
		clear(t.slots)
		t.n = 0
	}
	var zero V
	t.zero, t.has0 = zero, false
}

// Take moves donor's slots into t, cleared, when they outnumber t's own,
// and leaves donor with none; otherwise it changes neither table. A
// finished owner's grown table so replaces a new owner's first growth.
// Each table keeps its own first size and expected count. t must hold no
// key yet, and the slots it held are dropped.
func (t *Table[V]) Take(donor *Table[V]) {
	if len(donor.slots) <= len(t.slots) {
		return
	}
	clear(donor.slots)
	*t = Table[V]{slots: donor.slots, mask: donor.mask, first: t.first, fit: t.fit}
	*donor = Table[V]{first: donor.first, fit: donor.fit}
}

// Touch returns the key in the home slot of a key whose Hash is h, or 0
// when the table has no slots. It is a plain load that brings the slot's
// cache line in before a probe; no result may depend on its value, and a
// grow in between only wastes it.
func (t *Table[V]) Touch(h uint64) uint64 {
	if t.slots == nil {
		return 0
	}
	return t.slots[h&t.mask].key
}

// Slots returns the number of slots the table holds.
func (t *Table[V]) Slots() int { return len(t.slots) }

// Bytes returns the memory the table's slots take.
func (t *Table[V]) Bytes() int {
	return len(t.slots) * int(unsafe.Sizeof(slot[V]{}))
}
