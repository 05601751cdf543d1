package workload

import (
	"testing"

	"timekeeping/internal/trace"
)

// copyStream builds the named profile's stream at seed, behind the
// software-prefetch filter when drop is set.
func copyStream(name string, seed uint64, drop bool) trace.Stream {
	spec := MustProfile(name)
	s := spec.Stream(seed)
	if drop {
		s = &trace.DropSWPrefetch{S: s}
	}
	return s
}

// checkCopy takes a copy of a stream advanced by n references and
// requires it to yield the next m references of a fresh stream advanced
// by n. It drains the copy before reading the original, so the original
// must still yield the same references afterwards.
func checkCopy(t *testing.T, name string, seed uint64, drop bool, n, m int) {
	t.Helper()
	orig := copyStream(name, seed, drop)
	trace.Collect(orig, n)
	c, ok := trace.Copy(orig)
	if !ok {
		t.Fatalf("%s drop=%v: stream cannot be copied", name, drop)
	}
	fresh := copyStream(name, seed, drop)
	trace.Collect(fresh, n)
	want := trace.Collect(fresh, m)
	for _, side := range []struct {
		label string
		s     trace.Stream
	}{{"copy", c}, {"original", orig}} {
		got := trace.Collect(side.s, m)
		if len(got) != m {
			t.Fatalf("%s drop=%v n=%d: %s ended after %d refs", name, drop, n, side.label, len(got))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s drop=%v n=%d: %s ref %d = %+v, want %+v", name, drop, n, side.label, i, got[i], want[i])
			}
		}
	}
}

// TestStreamCopyMatchesFreshStream: for every profile, with and without
// the software-prefetch filter, a copy taken at the start, or on either
// side of the first burst boundary, yields what a fresh stream advanced
// as far yields, across a full scheduling round.
func TestStreamCopyMatchesFreshStream(t *testing.T) {
	for _, name := range Names() {
		spec := MustProfile(name)
		first := spec.Components[0].Weight * BurstUnit
		round := 0
		for _, c := range spec.Components {
			round += c.Weight * BurstUnit
		}
		for _, drop := range []bool{false, true} {
			for _, n := range []int{0, first - 1, first, first + 1} {
				checkCopy(t, name, 1, drop, n, round+BurstUnit)
			}
		}
	}
}

// FuzzStreamClone: a copy taken at any split point of any profile, at any
// seed and with or without the software-prefetch filter, matches a fresh
// stream advanced to the split.
func FuzzStreamClone(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint32(0), false)
	f.Add(uint8(3), uint64(7), uint32(2047), true)
	f.Add(uint8(25), uint64(1<<40), uint32(40000), true)
	names := Names()
	f.Fuzz(func(t *testing.T, profile uint8, seed uint64, split uint32, drop bool) {
		name := names[int(profile)%len(names)]
		checkCopy(t, name, seed, drop, int(split%(1<<16)), 4096)
	})
}
