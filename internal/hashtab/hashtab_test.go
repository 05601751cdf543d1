package hashtab

import (
	"maps"
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
