package hashtab

import (
	"maps"
	"math"
	"slices"
	"testing"
)

const top = ^uint64(0)

// contents returns every key Range visits with its value, failing t on a
// key visited twice.
func contents[V any](t *testing.T, tab *Table[V]) map[uint64]V {
	t.Helper()
	got := map[uint64]V{}
	tab.Range(func(key uint64, v *V) {
		if _, dup := got[key]; dup {
			t.Errorf("Range visited key %#x twice", key)
		}
		got[key] = *v
	})
	return got
}

// TestTableMatchesMap counts a key stream in a table and in a Go map. The
// keys include 0 and 2^64-1, and the table grows from 16 slots at least
// four times. Every Put must report added exactly when the map lacked
// the key, return the value stored so far, and hand back a slot index
// that reads back its key; Range must visit what the map holds; and
// Reset must empty the table, key 0 included, and keep its slots.
func TestTableMatchesMap(t *testing.T) {
	tab := New[uint64](16)
	want := map[uint64]uint64{}
	doublings := 0
	for i := uint64(0); i < 5000; i++ {
		key := i * i % 977 * 0x10001
		if i%7 == 0 {
			key = top - i%3
		}
		before := tab.Slots()
		v, slot, added := tab.Put(key)
		if before > 0 && tab.Slots() != before {
			doublings++
		}
		if _, had := want[key]; added == had {
			t.Fatalf("Put(%#x) added %v, but the map had the key: %v", key, added, had)
		}
		if *v != want[key] {
			t.Fatalf("Put(%#x) holds %d, map %d", key, *v, want[key])
		}
		*v++
		want[key]++
		if got := tab.At(slot, key); got != v {
			t.Fatalf("slot %d returned for %#x does not read back its key", slot, key)
		}
	}
	if _, ok := want[0]; !ok {
		t.Fatal("key stream lacks key 0")
	}
	if _, ok := want[top]; !ok {
		t.Fatal("key stream lacks key 2^64-1")
	}
	if doublings < 4 {
		t.Fatalf("table doubled %d times from 16 slots, want at least 4", doublings)
	}
	if got := contents(t, &tab); !maps.Equal(got, want) {
		t.Fatalf("Range visited %d keys, map holds %d, or their counts differ", len(got), len(want))
	}

	slots := tab.Slots()
	tab.Reset()
	if got := contents(t, &tab); len(got) != 0 {
		t.Fatalf("Reset left %d keys", len(got))
	}
	if tab.Slots() != slots {
		t.Fatalf("Reset left %d slots of %d", tab.Slots(), slots)
	}
	for _, key := range []uint64{0, top, 0x10001} {
		if v, _, added := tab.Put(key); !added || *v != 0 {
			t.Fatalf("after Reset, Put(%#x) added %v holding %d, want a new zero value", key, added, *v)
		}
	}
}

// TestTableTake: a table takes a donor's slots only when they outnumber
// its own. It takes them cleared, without the donor's key 0 and with an
// entry count of zero, and the donor is left with none.
func TestTableTake(t *testing.T) {
	fill := func(n uint64) (Table[uint64], map[uint64]uint64) {
		tab, want := New[uint64](16), map[uint64]uint64{}
		for k := uint64(0); k < n; k++ {
			v, _, _ := tab.Put(k * 64)
			*v, want[k*64] = k+1, k+1
		}
		return tab, want
	}

	// A smaller donor changes neither table.
	taker, _ := fill(1000)
	taker.Reset()
	donor, donorWant := fill(100)
	takerSlots, donorSlots := taker.Slots(), donor.Slots()
	taker.Take(&donor)
	if taker.Slots() != takerSlots || len(contents(t, &taker)) != 0 {
		t.Fatalf("taker of a smaller donor has %d slots (want %d) and %d keys (want 0)",
			taker.Slots(), takerSlots, len(contents(t, &taker)))
	}
	if donor.Slots() != donorSlots || !maps.Equal(contents(t, &donor), donorWant) {
		t.Fatal("a smaller donor lost its slots or keys")
	}

	// A larger donor hands its slots over, emptied.
	taker = New[uint64](16)
	donor, _ = fill(1000)
	donorSlots = donor.Slots()
	taker.Take(&donor)
	if taker.Slots() != donorSlots {
		t.Fatalf("taker has %d slots, want the donor's %d", taker.Slots(), donorSlots)
	}
	if got := contents(t, &taker); len(got) != 0 {
		t.Fatalf("taker holds %d of the donor's keys", len(got))
	}
	if donor.Slots() != 0 || len(contents(t, &donor)) != 0 {
		t.Fatalf("donor kept %d slots and %d keys", donor.Slots(), len(contents(t, &donor)))
	}
	if v, _, added := taker.Put(0); !added || *v != 0 {
		t.Fatalf("taker's Put(0) added %v holding %d, want a new zero value", added, *v)
	}
	// The entry count starts at zero: 3/4 of the slots fill without a grow.
	for k := uint64(1); k <= uint64(donorSlots)*3/4; k++ {
		if v, _, added := taker.Put(k * 64); !added || *v != 0 {
			t.Fatalf("taker's Put(%#x) added %v holding %d, want a new zero value", k*64, added, *v)
		}
	}
	if taker.Slots() != donorSlots {
		t.Fatalf("taker grew to %d slots before reaching 3/4 load of %d", taker.Slots(), donorSlots)
	}
}

// slotBytes returns the bytes per slot of a Table[V] that holds a key.
func slotBytes[V any]() int {
	tab := New[V](16)
	tab.Put(1)
	return tab.Bytes() / tab.Slots()
}

// TestSlotSizes pins the slot layout of each value type in use: the seen
// set's zero-size value, the region counts' uint64 and the tracker's
// three-word block history, two slots per 64-byte cache line.
func TestSlotSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"struct{}", slotBytes[struct{}](), 8},
		{"uint64", slotBytes[uint64](), 16},
		{"three words", slotBytes[struct{ a, b, c uint64 }](), 32},
	} {
		if c.got != c.want {
			t.Errorf("a %s value takes a %d-byte slot, want %d", c.name, c.got, c.want)
		}
	}
}

// fitSlots returns the smallest power of two of at least 16 whose 3/4
// load exceeds n: the size a table told to expect n keys grows to.
func fitSlots(n int) int {
	c := 16
	for c-c/4 <= n {
		c <<= 1
	}
	return c
}

// putKeys puts the nonzero keys (from+1)*64 up to to*64 into tab, counting
// each in want, and returns the slot counts tab grew to on the way.
func putKeys(tab *Table[uint64], want map[uint64]uint64, from, to uint64) (grows []int) {
	for k := from + 1; k <= to; k++ {
		before := tab.Slots()
		v, _, _ := tab.Put(k * 64)
		*v++
		want[k*64]++
		if before > 0 && tab.Slots() != before {
			grows = append(grows, tab.Slots())
		}
	}
	return grows
}

// TestTableExpect: a table told to expect n keys and filled with n
// distinct nonzero keys grows exactly once, to the smallest
// power of two whose 3/4 load exceeds n, and matches a Go map. Putting
// the same keys again grows it no further, n at a load boundary
// included (768 keys fill 1024 slots to 3/4). Filled past that size's
// 3/4 load, it doubles as before.
func TestTableExpect(t *testing.T) {
	for _, n := range []int{13, 100, 768, 5000, 20000} {
		tab, want := New[uint64](16), map[uint64]uint64{}
		tab.Expect(n)
		grows := putKeys(&tab, want, 0, uint64(n))
		if len(grows) != 1 || grows[0] != fitSlots(n) {
			t.Fatalf("n=%d: grew to %v slots, want once, to %d", n, grows, fitSlots(n))
		}
		if again := putKeys(&tab, want, 0, uint64(n)); len(again) != 0 {
			t.Fatalf("n=%d: putting the same keys again grew the table to %v slots", n, again)
		}
		if got := contents(t, &tab); !maps.Equal(got, want) {
			t.Fatalf("n=%d: Range visited %d keys, map holds %d, or their counts differ", n, len(got), len(want))
		}
		past := putKeys(&tab, want, uint64(n), uint64(3*fitSlots(n)/2))
		if len(past) != 1 || past[0] != 2*fitSlots(n) {
			t.Fatalf("n=%d: filled past its size, the table grew to %v slots, want one doubling to %d",
				n, past, 2*fitSlots(n))
		}
		if got := contents(t, &tab); !maps.Equal(got, want) {
			t.Fatalf("n=%d: after doubling, the table and the map differ", n)
		}
	}
}

// TestTableExpectNothing: a table told to expect 0 keys, a negative count
// or one no table could hold grows through the same sizes as a table
// told nothing, doubling from its first size.
func TestTableExpectNothing(t *testing.T) {
	told := New[uint64](16)
	told.Expect(100)
	told.Expect(0) // a later count replaces an earlier one
	plain := New[uint64](16)
	want := putKeys(&plain, map[uint64]uint64{}, 0, 5000)
	if len(want) < 8 {
		t.Fatalf("the untold table grew %d times, want a doubling chain of at least 8", len(want))
	}
	for _, n := range []int{0, -1, math.MaxInt} {
		tab := New[uint64](16)
		tab.Expect(100)
		tab.Expect(n)
		if got := putKeys(&tab, map[uint64]uint64{}, 0, 5000); !slices.Equal(got, want) {
			t.Errorf("expecting %d keys, the table grew to %v slots, want %v", n, got, want)
		}
	}
}

// TestTableTakeKeepsExpect: Take leaves each table its own expected
// count. A taker told to expect 20,000 keys that takes a donor's 4096
// slots grows from them straight to its own fit, and one told nothing
// doubles; the donor, refilled, grows to the fit it was told.
func TestTableTakeKeepsExpect(t *testing.T) {
	for _, c := range []struct {
		expect int
		grows  []int
	}{
		{20000, []int{fitSlots(20000)}},
		{0, []int{8192}},
	} {
		donor := New[uint64](16)
		donor.Expect(3000)
		putKeys(&donor, map[uint64]uint64{}, 0, 3000)
		if donor.Slots() != 4096 {
			t.Fatalf("donor holds %d slots, want 4096", donor.Slots())
		}
		taker := New[uint64](16)
		taker.Expect(c.expect)
		taker.Take(&donor)
		if taker.Slots() != 4096 {
			t.Fatalf("taker holds %d slots after Take, want the donor's 4096", taker.Slots())
		}
		if got := putKeys(&taker, map[uint64]uint64{}, 0, 3073); !slices.Equal(got, c.grows) {
			t.Errorf("taker told %d keys grew to %v slots past 3/4 of 4096, want %v", c.expect, got, c.grows)
		}
		if got := putKeys(&donor, map[uint64]uint64{}, 0, 3000); !slices.Equal(got, []int{4096}) {
			t.Errorf("refilled donor grew to %v slots, want its own fit, [4096]", got)
		}
	}
}
