package core

import (
	"math/rand"
	"reflect"
	"testing"

	"timekeeping/internal/classify"
	"timekeeping/internal/hier"
)

// TestFastTrackerMatchesTracker drives both trackers with identical
// random access streams and requires identical metrics, including across
// mid-stream Reset and SetRecording transitions.
func TestFastTrackerMatchesTracker(t *testing.T) {
	const frames = 64
	rng := rand.New(rand.NewSource(7))

	ref := NewTracker(frames)
	fast := NewFastTracker(frames)

	now := uint64(0)
	kinds := []classify.MissKind{classify.Cold, classify.Conflict, classify.Capacity, classify.Unclassified}
	for i := 0; i < 200000; i++ {
		now += uint64(rng.Intn(200))
		frame := rng.Intn(frames)
		block := uint64(rng.Intn(512)) * 64
		hit := rng.Intn(3) > 0
		kind := kinds[rng.Intn(len(kinds))]
		victimValid := rng.Intn(4) > 0

		ev := hier.AccessEvent{Now: now, Frame: frame, Block: block, Hit: hit, MissKind: kind}
		ev.Victim.Valid = victimValid
		ref.OnAccess(&ev)
		fast.Observe(frame, now, block, hit, kind, victimValid)

		switch i {
		case 50000:
			ref.Reset()
			fast.Reset()
		case 100000:
			ref.SetRecording(false)
			fast.SetRecording(false)
		case 150000:
			ref.SetRecording(true)
			fast.SetRecording(true)
		}
	}

	if !reflect.DeepEqual(ref.Metrics(), fast.Metrics()) {
		t.Fatalf("metrics diverge:\nref:  %+v\nfast: %+v", ref.Metrics(), fast.Metrics())
	}
}

// observeSweeps drives t with reps sweeps over blocks 0, 1, …, n-1 (64-byte
// strides, block 0 at address 0) on a direct-mapped view of its frames,
// one access every 3 cycles from cycle 3: an access hits when its frame
// holds the block, and a miss is cold on the block's first sight in this
// call and a capacity miss after.
func observeSweeps(t *FastTracker, n, reps int) {
	frames := len(t.gens)
	resident := make([]uint64, frames)
	valid := make([]bool, frames)
	seen := make(map[uint64]bool)
	now := uint64(0)
	for r := 0; r < reps; r++ {
		for i := 0; i < n; i++ {
			now += 3
			block, frame := uint64(i)*64, i%frames
			if valid[frame] && resident[frame] == block {
				t.Observe(frame, now, block, true, classify.Conflict, false)
				continue
			}
			kind := classify.Capacity
			if !seen[block] {
				kind, seen[block] = classify.Cold, true
			}
			t.Observe(frame, now, block, false, kind, valid[frame])
			resident[frame], valid[frame] = block, true
		}
	}
}

// TestFastTrackerTakeTableMatchesFresh: a tracker that takes over the
// block-history table of a finished tracker, one that observed another
// stream, touched block 0 and grew its table at least twice, observes a
// stream that revisits those blocks, block 0 included, to the same metrics
// as a tracker built fresh. Histories left in the table, or block 0's kept,
// would time reloads and predict live times from the donor's generations.
func TestFastTrackerTakeTableMatchesFresh(t *testing.T) {
	const frames = 1024
	donor := NewFastTracker(frames)
	observeSweeps(donor, 30_000, 2)
	slots := donor.hist.Slots()
	if zero := donor.hist.At(0, 0); slots < 4*histInitial || zero == nil || zero.live == liveNone {
		t.Fatalf("donor's table has %d slots (block 0's history %+v), want at least %d and a closed block-0 generation",
			slots, zero, 4*histInitial)
	}

	taker, fresh := NewFastTracker(frames), NewFastTracker(frames)
	taker.TakeTable(donor)
	if got := taker.hist.Slots(); got != slots {
		t.Fatalf("taker's table has %d slots, want the donor's %d", got, slots)
	}
	if got := taker.HistFootprint(); got != 32*slots {
		t.Fatalf("taker's table takes %d bytes, want 32 per slot, two per cache line", got)
	}
	if donor.hist.Slots() != 0 {
		t.Fatal("donor kept its table after handing it over")
	}
	observeSweeps(taker, 4_000, 3)
	observeSweeps(fresh, 4_000, 3)
	if !reflect.DeepEqual(taker.Metrics(), fresh.Metrics()) {
		t.Fatalf("metrics diverge from a fresh tracker's:\ntaker: %+v\nfresh: %+v", taker.Metrics(), fresh.Metrics())
	}
}
